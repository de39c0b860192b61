package sim

import (
	"reflect"
	"testing"
)

func TestBusySetWalksInOrder(t *testing.T) {
	b := NewBusySet(200)
	marked := []int{199, 5, 6, 70, 74, 75, 0, 138, 139}
	for _, id := range marked {
		b.Mark(id)
	}
	if b.Mark(70) {
		t.Fatal("marking a member again reported it joined")
	}
	b.Clear(139)
	var got []int
	b.Each(func(id int) {
		got = append(got, id)
		b.Clear(id) // a tick may retire the node it runs for
	})
	if want := []int{0, 5, 6, 70, 74, 75, 138, 199}; !reflect.DeepEqual(got, want) {
		t.Fatalf("walked %v, want %v", got, want)
	}
	if b.Any() {
		t.Fatal("set not empty after the walk cleared every member")
	}
	for id := 0; id < 200; id++ {
		if b.Has(id) {
			t.Fatalf("node %d still in the set after the walk cleared every member", id)
		}
	}
}
