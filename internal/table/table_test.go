package table

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"
)

// keysWithHome returns count distinct keys whose home slot in a table of
// the given size is home: the keys of one probe run.
func keysWithHome(size, home, count int) []uint64 {
	t := Table[int]{shift: uint(64 - bits.TrailingZeros(uint(size)))}
	var out []uint64
	for k := uint64(1); len(out) < count; k++ {
		if t.home(k) == home {
			out = append(out, k)
		}
	}
	return out
}

// scriptKeys is the pool a script's key bytes index: small dense keys, as
// node ids are; line-address-like keys with a common residue, as the lines
// homed at one slice are; keys with only high bits set; and, for every
// size a script can reach, a family that shares the last slot as its home
// (so the probe run wraps round to slot 0) and a family that shares the one
// before it (so two runs abut and a delete in the first must not pull an
// entry of the second ahead of its home). The two extremes come last: key 0
// (index 0, the value an empty slot's key holds) and ^uint64(0) (index
// maxKeyIndex), both ordinary keys.
func scriptKeys() []uint64 {
	var keys []uint64
	for k := uint64(0); k < 24; k++ {
		keys = append(keys, k, 0x100000+64*k+17, k<<58)
	}
	for size := minSlots; size <= 128; size *= 2 {
		keys = append(keys, keysWithHome(size, size-1, 5)...)
		keys = append(keys, keysWithHome(size, size-2, 3)...)
	}
	return append(keys, ^uint64(0))
}

// maxKeyIndex is the script byte that names ^uint64(0).
const maxKeyIndex = 120

// resetOp is the script's operation byte for Reset.
const resetOp = 0xFF

// get reads key through Ref.
func get(tab *Table[int], key uint64) (int, bool) {
	if p := tab.Ref(key); p != nil {
		return *p, true
	}
	return 0, false
}

// checkInvariants verifies what lookups rely on: the count is right, the
// load stays at or under three quarters (so a probe always terminates),
// and no entry is cut off from its home slot by an empty one.
func checkInvariants[V comparable](t *testing.T, tab *Table[V]) {
	t.Helper()
	if len(tab.vals) != len(tab.keys) || len(tab.used) != (len(tab.keys)+63)/64 {
		t.Fatalf("%d keys, %d values, %d occupancy words: the arrays disagree on the slot count", len(tab.keys), len(tab.vals), len(tab.used))
	}
	used := 0
	mask := len(tab.keys) - 1
	for i := range tab.keys {
		if !tab.full(i) {
			// A freed slot is blank, so it pins nothing a value points to.
			var zero V
			if tab.keys[i] != 0 || tab.vals[i] != zero {
				t.Fatalf("empty slot %d holds key %#x, value %v", i, tab.keys[i], tab.vals[i])
			}
			continue
		}
		used++
		for j := tab.home(tab.keys[i]); j != i; j = (j + 1) & mask {
			if !tab.full(j) {
				t.Fatalf("key %#x in slot %d is unreachable: slot %d on the way from its home is empty", tab.keys[i], i, j)
			}
		}
	}
	if used != tab.n {
		t.Fatalf("%d slots in use, Len says %d", used, tab.n)
	}
	if tab.n*4 > len(tab.keys)*3 {
		t.Fatalf("%d keys in %d slots: over three quarters full", tab.n, len(tab.keys))
	}
}

// runScript plays a byte script against a Table and a Go map. Each step is
// two bytes, an operation and a key index; after every step the two must
// agree on the touched key and on the count, and at the end on every key.
// Operation byte resetOp empties both, the table through Reset, which
// keeps its slots: the steps after it run on a table larger than its
// contents would have grown.
func runScript(t *testing.T, script []byte) {
	keys := scriptKeys()
	var tab Table[int]
	ref := map[uint64]int{}
	if _, had := tab.Delete(7); tab.Len() != 0 || tab.Ref(7) != nil || had {
		t.Fatal("the zero Table is not empty")
	}
	for step := 0; step+1 < len(script); step += 2 {
		op, key := script[step], keys[int(script[step+1])%len(keys)]
		switch op % 4 {
		case 0, 1: // put (twice as likely as delete, so scripts grow tables)
			before := tab.Len()
			p := tab.Put(key)
			if _, had := ref[key]; !had && *p != 0 {
				t.Fatalf("step %d: Put of absent key %#x found value %d, want the zero value", step, key, *p)
			} else if had && tab.Len() != before {
				t.Fatalf("step %d: Put of present key %#x changed Len", step, key)
			}
			*p = step + 1
			ref[key] = step + 1
		case 2:
			want, had := ref[key]
			if got, ok := tab.Delete(key); got != want || ok != had {
				t.Fatalf("step %d: Delete(%#x) = %d, %v; map says %d, %v", step, key, got, ok, want, had)
			}
			delete(ref, key)
		case 3:
			if op == resetOp {
				tab.Reset()
				clear(ref)
				break
			}
			// Ref's pointer is good until the next Put or Delete: written
			// through here, read back through a fresh Ref below.
			if p := tab.Ref(key); p != nil {
				*p = -step
				ref[key] = -step
			}
		}
		got, ok := get(&tab, key)
		want, wantOK := ref[key]
		if got != want || ok != wantOK {
			t.Fatalf("step %d: Ref(%#x) = %d, %v; map says %d, %v", step, key, got, ok, want, wantOK)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, map %d", step, tab.Len(), len(ref))
		}
		checkInvariants(t, &tab)
	}
	for _, key := range keys {
		got, ok := get(&tab, key)
		want, wantOK := ref[key]
		if got != want || ok != wantOK {
			t.Fatalf("at the end: Ref(%#x) = %d, %v; map says %d, %v", key, got, ok, want, wantOK)
		}
	}
}

// wrapScript fills a table with the families that share its last two slots
// as homes, deletes from the front of each run and reinserts, at every
// size from minSlots up: the backward shift across the wrap-around.
func wrapScript() []byte {
	var script []byte
	base := 72 // scriptKeys: 24 x 3 keys come before the families
	for fam := 0; fam < 6; fam++ {
		first := base + 8*fam
		for k := 0; k < 8; k++ {
			script = append(script, 0, byte(first+k))
		}
		for _, k := range []int{0, 5, 1, 6, 0, 5} { // delete run heads, then put them back
			script = append(script, 2, byte(first+k))
		}
		for _, k := range []int{0, 5, 1, 6} {
			script = append(script, 0, byte(first+k))
		}
	}
	return script
}

// extremesScript puts, reads, deletes and re-puts key 0 and ^uint64(0)
// among enough other keys to grow the table past its first two sizes.
func extremesScript() []byte {
	script := []byte{0, 0, 0, maxKeyIndex, 3, 0, 3, maxKeyIndex}
	for k := byte(1); k < 12; k++ {
		script = append(script, 0, k)
	}
	return append(script, 2, 0, 3, maxKeyIndex, 0, 0, 2, maxKeyIndex, 3, 0, 0, maxKeyIndex, 2, 0)
}

func TestTableMatchesMap(t *testing.T) {
	t.Run("wrap-around", func(t *testing.T) { runScript(t, wrapScript()) })
	t.Run("extreme-keys", func(t *testing.T) {
		if keys := scriptKeys(); keys[0] != 0 || keys[maxKeyIndex] != ^uint64(0) || len(keys) != maxKeyIndex+1 {
			t.Fatal("scriptKeys moved key 0 or ^uint64(0)")
		}
		runScript(t, extremesScript())
	})
	t.Run("reset", func(t *testing.T) {
		// Fill to 64 slots, reset, refill half and delete across the old
		// runs, reset the emptied table again, and grow it past its size.
		var script []byte
		for k := byte(0); k < 40; k++ {
			script = append(script, 0, k)
		}
		script = append(script, resetOp, 0)
		for k := byte(0); k < 20; k++ {
			script = append(script, 0, 2*k, 2, k)
		}
		script = append(script, resetOp, 0, resetOp, 0)
		for k := byte(0); k < 100; k++ {
			script = append(script, 0, k)
		}
		runScript(t, script)
	})
	t.Run("random", func(t *testing.T) {
		// A fixed xorshift stream: long enough to take a table through
		// several doublings and back down to empty more than once.
		x := uint64(0x9E3779B97F4A7C15)
		script := make([]byte, 40000)
		for i := range script {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			script[i] = byte(x >> 32)
		}
		// A stretch of deletes only, so the table is emptied with its slots
		// still allocated, then refilled.
		for i := 20000; i < 24000; i += 2 {
			script[i] = 2
		}
		runScript(t, script)
	})
}

// TestGrowsFromEmptyByDoubling pins the sizing rule the bench's short rows
// depend on: nothing before the first Put, minSlots then, doubling after.
func TestGrowsFromEmptyByDoubling(t *testing.T) {
	var tab Table[int32]
	if tab.keys != nil || tab.vals != nil || tab.used != nil {
		t.Fatal("the zero Table owns memory")
	}
	sizes := []int{}
	for k := uint64(0); k < 100; k++ {
		*tab.Put(k * 64) = int32(k)
		if n := len(tab.keys); len(sizes) == 0 || sizes[len(sizes)-1] != n {
			sizes = append(sizes, n)
		}
	}
	if want := []int{4, 8, 16, 32, 64, 128, 256}; !slices.Equal(sizes, want) {
		t.Fatalf("slot counts %v, want %v", sizes, want)
	}
}

// TestSlotBytes pins the split layout's cost: a Table[int32] that takes
// 1,000 keys doubles from 4 to 2,048 slots, 4,092 slots allocated in all.
// Split into keys, values and an occupancy bit, that is 12 bytes and an
// eighth a slot, ~49.7 KB; a slot struct with a flag byte beside the key
// pads to 16 bytes, ~65.5 KB.
func TestSlotBytes(t *testing.T) {
	const keys, budget = 1000, 51 << 10
	// TotalAlloc is process-wide: another goroutine's allocations can
	// only add to a fill's count, so the least of three fresh fills is
	// the one nearest the table's own bytes.
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var tab Table[int32]
		for k := uint64(0); k < keys; k++ {
			*tab.Put(k*64 + 17) = int32(k)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if tab.Len() != keys || len(tab.keys) != 2048 {
			t.Fatalf("%d keys in %d slots, want %d in 2048", tab.Len(), len(tab.keys), keys)
		}
	}
	if least > budget {
		t.Fatalf("a %d-key Table[int32] allocated %d bytes, budget %d", keys, least, budget)
	}
}

func FuzzTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 3, 2, 0, 1})
	f.Add(wrapScript())
	f.Add(extremesScript())
	f.Add([]byte{0, 1, 0, 2, resetOp, 0, 0, 1, 3, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runScript(t, script)
	})
}
