package spans

import (
	"bytes"
	"reflect"
	"testing"
)

// op builds one operation: a root over [0,100] with two sequential
// children, the first of which has a child of its own.
func op() []Span {
	return []Span{
		{Op: 7, ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{Op: 7, ID: 1, Parent: 0, Name: "pmem.update", Start: 10, End: 60, Bytes: 8},
		{Op: 7, ID: 2, Parent: 1, Name: "cxl.write", Start: 20, End: 50, Bytes: 64},
		{Op: 7, ID: 3, Parent: 0, Name: "pmem.update", Start: 70, End: 90, Bytes: 8},
	}
}

func TestSelfTimes(t *testing.T) {
	s := NewSummary()
	if err := s.Add(op()); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	want := map[string]Stats{
		"op":   {Calls: 1, Total: 100, Self: 30},
		"pmem": {Calls: 2, Bytes: 16, Total: 70, Self: 40},
		"cxl":  {Calls: 1, Bytes: 64, Total: 30, Self: 30},
	}
	for layer, w := range want {
		if got := *s.Layers[layer]; got != w {
			t.Errorf("%s: got %+v, want %+v", layer, got, w)
		}
	}
}

func TestCheckCatchesEscapedChild(t *testing.T) {
	o := op()
	o[2].End = 65 // the write outlives its update
	s := NewSummary()
	if err := s.Add(o); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err == nil {
		t.Fatal("a child outside its parent passed the check")
	}
}

func TestCheckCatchesOverlappingChildren(t *testing.T) {
	o := op()
	o[3].Start = 40 // starts before its sibling ends
	s := NewSummary()
	if err := s.Add(o); err != nil {
		t.Fatal(err)
	}
	if s.Misnested != 0 {
		t.Fatalf("siblings inside the root counted as misnested")
	}
	if err := s.Check(); err == nil {
		t.Fatal("overlapping children passed the self-time check")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	second := op()
	for i := range second {
		second[i].Op = 8
	}
	all := append(op(), second...)
	var buf bytes.Buffer
	if err := Write(&buf, all); err != nil {
		t.Fatal(err)
	}
	var got []Span
	n := 0
	err := Read(&buf, func(o []Span) error {
		n++
		got = append(got, o...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || !reflect.DeepEqual(got, all) {
		t.Fatalf("round trip: %d ops, spans equal=%v", n, reflect.DeepEqual(got, all))
	}
}
