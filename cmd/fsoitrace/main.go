// Command fsoitrace analyzes packet-lifecycle trace files produced by
// fsoisim -tracefile or experiments -trace: event counts by kind, a
// collision heat-map over src->dst pairs, the retry-count CDF of
// delivered packets and rebuilt latency percentile tables.
//
//	fsoisim -app jacobi -net fsoi -tracefile trace.jsonl
//	fsoitrace trace.jsonl
//	experiments -run fig5 -trace all.jsonl && fsoitrace -top 8 all.jsonl
//
// Input is JSON Lines: one event object per line, plus the {"run":...}
// separator lines experiments -trace writes (counted, otherwise
// ignored) and the {"ev":"truncated"} marker a capped recorder ends
// with (reported, never silently swallowed).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"fsoi/internal/config"
	"fsoi/internal/obs"
	"fsoi/internal/sim"
	"fsoi/internal/stats"
)

// line is the decoded union of every line shape in a trace file.
type line struct {
	At      int64   `json:"at"`
	Ev      string  `json:"ev"`
	ID      uint64  `json:"id"`
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Class   string  `json:"class"`
	Lane    string  `json:"lane"`
	Attempt int     `json:"attempt"`
	Aux     int64   `json:"aux"`
	Run     *string `json:"run"`
}

// pair is one directed src->dst stream in the heat-map.
type pair struct{ src, dst int }

// analysis accumulates everything one pass over the file produces.
type analysis struct {
	runs       int
	byKind     map[string]int64
	collisions map[pair]int64
	retries    map[int]int64 // delivered-packet retry count -> packets
	reg        *obs.Registry
	truncated  int64
	maxNode    int
	lines      int64
	events     []obs.Event // rebuilt events, only when detection is on
}

func analyze(r io.Reader, keepEvents bool) (*analysis, error) {
	a := &analysis{
		byKind:     make(map[string]int64),
		collisions: make(map[pair]int64),
		retries:    make(map[int]int64),
		reg:        obs.NewRegistry(),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		a.lines++
		var l line
		if err := json.Unmarshal([]byte(text), &l); err != nil {
			return nil, fmt.Errorf("line %d: %v", a.lines, err)
		}
		if l.Run != nil {
			a.runs++
			continue
		}
		if l.Ev == "truncated" {
			a.truncated += l.Aux
			continue
		}
		// obs keys a link by its two ids packed into 32 bits each: an id
		// beyond that would be counted as some other link's.
		if !isNodeID(l.Src) || !isNodeID(l.Dst) {
			return nil, fmt.Errorf("line %d: node id out of range (src %d, dst %d; want -1 to %d)", a.lines, l.Src, l.Dst, math.MaxInt32)
		}
		a.byKind[l.Ev]++
		if l.Src > a.maxNode {
			a.maxNode = l.Src
		}
		if l.Dst > a.maxNode {
			a.maxNode = l.Dst
		}
		class := obs.ClassMeta
		if l.Class == "data" {
			class = obs.ClassData
		}
		if keepEvents {
			if k, ok := obs.ParseKind(l.Ev); ok {
				a.events = append(a.events, obs.Event{
					At: sim.Cycle(l.At), Kind: k, ID: l.ID, Aux: l.Aux,
					Src: int32(l.Src), Dst: int32(l.Dst), Attempt: int32(l.Attempt),
					Class: class, Lane: laneOf(l.Lane),
				})
			}
		}
		switch l.Ev {
		case "collision":
			a.collisions[pair{l.Src, l.Dst}]++
		case "deliver":
			a.retries[l.Attempt]++
			a.reg.Observe(class, l.Src, l.Dst, l.Aux)
		}
	}
	return a, sc.Err()
}

// isNodeID reports whether id is a node number a trace can hold: what an
// obs.Event's int32 endpoints take, -1 standing for "none".
func isNodeID(id int) bool { return id >= -1 && id <= math.MaxInt32 }

// laneOf inverts obs.LaneName.
func laneOf(name string) int8 {
	switch name {
	case "meta":
		return 0
	case "data":
		return 1
	}
	return obs.LaneNone
}

// kindOrder lists event kinds in lifecycle order for the counts table;
// unknown kinds (from future trace versions) sort after, alphabetically.
var kindOrder = []string{"fault", "inject", "tx-start", "retransmit",
	"collision", "backoff", "confirm-drop", "deliver"}

func (a *analysis) countsTable() string {
	known := make(map[string]bool, len(kindOrder))
	order := append([]string(nil), kindOrder...)
	for _, k := range kindOrder {
		known[k] = true
	}
	var extra []string
	for k := range a.byKind {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	order = append(order, extra...)
	t := stats.NewTable("event", "count")
	for _, k := range order {
		if n := a.byKind[k]; n > 0 {
			t.AddRowf(k, n)
		}
	}
	return t.String()
}

// heatMap renders collisions per src->dst pair: a full matrix up to 16
// nodes, the busiest pairs beyond that.
func (a *analysis) heatMap(top int) string {
	if len(a.collisions) == 0 {
		return "no collisions recorded\n"
	}
	pairs := make([]pair, 0, len(a.collisions))
	for p := range a.collisions {
		pairs = append(pairs, p)
	}
	nodes := a.maxNode + 1
	if nodes <= 16 {
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].src != pairs[j].src {
				return pairs[i].src < pairs[j].src
			}
			return pairs[i].dst < pairs[j].dst
		})
		header := []string{"src \\ dst"}
		for d := 0; d < nodes; d++ {
			header = append(header, fmt.Sprintf("%d", d))
		}
		t := stats.NewTable(header...)
		for s := 0; s < nodes; s++ {
			row := []string{fmt.Sprintf("%d", s)}
			for d := 0; d < nodes; d++ {
				if n := a.collisions[pair{s, d}]; n > 0 {
					row = append(row, fmt.Sprintf("%d", n))
				} else {
					row = append(row, ".")
				}
			}
			t.AddRow(row...)
		}
		return t.String()
	}
	sort.Slice(pairs, func(i, j int) bool {
		ci, cj := a.collisions[pairs[i]], a.collisions[pairs[j]]
		if ci != cj {
			return ci > cj
		}
		if pairs[i].src != pairs[j].src {
			return pairs[i].src < pairs[j].src
		}
		return pairs[i].dst < pairs[j].dst
	})
	truncatedPairs := 0
	if top > 0 && len(pairs) > top {
		truncatedPairs = len(pairs) - top
		pairs = pairs[:top]
	}
	t := stats.NewTable("pair", "collisions")
	for _, p := range pairs {
		t.AddRowf(fmt.Sprintf("%d->%d", p.src, p.dst), a.collisions[p])
	}
	out := t.String()
	if truncatedPairs > 0 {
		out += fmt.Sprintf("(%d quieter pairs omitted)\n", truncatedPairs)
	}
	return out
}

// retryCDF renders the cumulative distribution of delivered-packet
// retry counts.
func (a *analysis) retryCDF() string {
	if len(a.retries) == 0 {
		return "no deliveries recorded\n"
	}
	var counts []int
	var total int64
	for r := range a.retries {
		counts = append(counts, r)
	}
	sort.Ints(counts)
	for _, r := range counts {
		total += a.retries[r]
	}
	t := stats.NewTable("retries", "packets", "cumulative %")
	var seen int64
	for _, r := range counts {
		seen += a.retries[r]
		t.AddRow(fmt.Sprintf("%d", r), fmt.Sprintf("%d", a.retries[r]),
			fmt.Sprintf("%.2f", float64(seen)/float64(total)*100))
	}
	return t.String()
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command behind a testable seam: it reads the trace
// named by the first argument (stdin when there is none) and returns
// the exit code instead of calling os.Exit.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsoitrace", flag.ContinueOnError)
	// A bad flag is one fail line like any other bad input; only -h
	// prints the usage.
	fs.SetOutput(io.Discard)
	top := fs.Int("top", 16, "rows in the busiest-links and busiest-pairs tables (<= 0: all)")
	detect := fs.Bool("detect", false, "run the windowed contention detector over the trace (single-run traces only)")
	window := fs.Int64("window", obs.DefaultWindowCycles, "detector window length in cycles (needs -detect)")
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "fsoitrace:", err)
		return code
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		return fail(2, err)
	}
	// A flag that changes nothing is refused, as experiments refuses a
	// flag no selected experiment owns.
	windowSet := false
	fs.Visit(func(f *flag.Flag) { windowSet = windowSet || f.Name == "window" })
	if windowSet && !*detect {
		return fail(2, errors.New("-window sets the detector's window: it needs -detect"))
	}
	// The window is fsoisim's detect_window, checked by its row.
	if err := config.Check("detect_window", float64(*window)); err != nil {
		return fail(2, fmt.Errorf("-window: %w", err))
	}

	in := stdin
	name := "stdin"
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(2, err)
		}
		defer f.Close()
		in, name = f, fs.Arg(0)
	}
	a, err := analyze(in, *detect)
	if err != nil {
		return fail(1, err)
	}

	fmt.Fprintf(stdout, "%s: %d lines", name, a.lines)
	if a.runs > 0 {
		fmt.Fprintf(stdout, ", %d runs", a.runs)
	}
	fmt.Fprintln(stdout)
	if a.truncated > 0 {
		fmt.Fprintf(stdout, "WARNING: recording truncated, %d events lost past the recorder cap\n", a.truncated)
	}
	fmt.Fprintln(stdout, "\nevent counts")
	fmt.Fprint(stdout, a.countsTable())
	fmt.Fprintln(stdout, "\ncollision heat-map (src -> dst)")
	fmt.Fprint(stdout, a.heatMap(*top))
	fmt.Fprintln(stdout, "\nretry CDF (delivered packets)")
	fmt.Fprint(stdout, a.retryCDF())
	fmt.Fprintln(stdout, "\nlatency percentiles by packet class (cycles)")
	fmt.Fprint(stdout, a.reg.ClassTable())
	fmt.Fprintln(stdout, "\nlatency percentiles by link (cycles)")
	fmt.Fprint(stdout, a.reg.LinkTable(*top))
	if *detect {
		fmt.Fprintln(stdout, "\ncontention anomaly detection")
		if a.runs > 1 {
			fmt.Fprintf(stdout, "WARNING: %d runs in one file; detection windows assume a single run's timeline\n", a.runs)
		}
		report := obs.Detect(a.events, obs.DetectorConfig{WindowCycles: *window})
		fmt.Fprint(stdout, report.Table())
	}
	return 0
}
