// Package mapfix seeds map-iteration-order hazards and the two idioms
// (key-indexed assignment, append-then-sort) maporder accepts. Linted
// under the virtual import path fsoi/internal/stats.
package mapfix

import (
	"sort"

	"fsoi/internal/sim"
)

func unsortedAppend(m map[string]int64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "maporder: append to keys inside map iteration"
	}
	return keys
}

func sortedAppend(m map[string]int64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // sorted below: the canonical idiom, not a finding
	}
	sort.Strings(keys)
	return keys
}

func floatAccum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want "maporder: floating-point accumulation into total"
	}
	return total
}

func intAccum(m map[string]int64) int64 {
	var total int64
	for _, v := range m {
		total += v // want "maporder: update .* of total inside map iteration"
	}
	return total
}

func perKeyMerge(dst, src map[string]int64) {
	for k, v := range src {
		dst[k] += v // each key visited once: not a finding
	}
}

func lastWriter(m map[string]int64) string {
	var last string
	for k := range m {
		last = k // want "maporder: assignment to last inside map iteration"
	}
	return last
}

func constFlag(m map[string]int64) bool {
	found := false
	for _, v := range m {
		if v > 10 {
			found = true // want "maporder: assignment to found inside map iteration"
		}
	}
	return found
}

func pureMax(m map[string]int64) int64 {
	var best int64
	for _, v := range m {
		if v > best {
			best = v // want "maporder: assignment to best inside map iteration"
		}
	}
	return best
}

func builtinMax(m map[string]int64) int64 {
	var best int64
	for _, v := range m {
		best = max(best, v) // want "maporder: assignment to best inside map iteration"
	}
	return best
}

func argMax(m map[string]int64) (string, int64) {
	var bestK string
	var best int64
	for k, v := range m {
		if v > best {
			best = v  // want "maporder: assignment to best inside map iteration"
			bestK = k // want "maporder: assignment to bestK inside map iteration"
		}
	}
	return bestK, best
}

func rngDraw(m map[string]int64, rng *sim.RNG) int64 {
	var total int64
	for range m {
		total += int64(rng.Intn(4)) // want "maporder: random draw inside map iteration" "maporder: update .* of total"
	}
	return total
}

func drain(m map[string]int64) {
	for k := range m {
		delete(m, k) // deleting the visited key: not a finding
	}
}

func firstMatch(m map[string]int64) string {
	for k, v := range m {
		if v == 0 {
			return k // want "maporder: return inside map iteration"
		}
	}
	return ""
}

func publish(m map[string]int64, ch chan string) {
	for k := range m {
		ch <- k // want "maporder: channel send inside map iteration"
	}
}

func countKeys(m map[string]int64) int {
	n := 0
	for range m {
		n++ // want "maporder: update .* of n inside map iteration"
	}
	return n
}
