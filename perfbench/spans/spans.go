// Package spans holds the benchmark's span model and its summariser.
//
// A span is one call across a layer boundary: its operation, its parent
// within that operation, a "<layer>.<call>" name, start and end times
// in nanoseconds, and the bytes it moved. The spans of one operation
// form a tree rooted at the operation itself. A layer's self time is
// the time its spans were open minus the part of each span's interval
// that its child spans cover.
package spans

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Span is one recorded call.
type Span struct {
	Op     int64  // operation id, shared by every span of one operation
	ID     int32  // index within the operation, in order of start
	Parent int32  // ID of the enclosing span, -1 for the operation's root
	Name   string // "<layer>.<call>"
	Start  int64  // ns since the run's epoch
	End    int64  // ns since the run's epoch
	Bytes  int64  // bytes moved by the call, 0 when it moves none
}

// Layer is the part of the name before the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Stats accumulates the spans of one layer or one span name.
type Stats struct {
	Calls int64
	Bytes int64
	Total int64 // ns the spans were open
	Self  int64 // ns not covered by child spans
}

// Summary aggregates whole operations.
type Summary struct {
	Ops    int64
	OpTime int64 // ns, sum of root span durations
	// Misnested counts spans that start before or end after their
	// parent, or whose parent does not precede them.
	Misnested int64
	Layers    map[string]*Stats
	Names     map[string]*Stats
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{Layers: map[string]*Stats{}, Names: map[string]*Stats{}}
}

// Name returns the accumulated stats of one span name (zero if absent).
func (s *Summary) Name(name string) Stats {
	if st, ok := s.Names[name]; ok {
		return *st
	}
	return Stats{}
}

func bump(m map[string]*Stats, key string, bytes, total, self int64) {
	st, ok := m[key]
	if !ok {
		st = &Stats{}
		m[key] = st
	}
	st.Calls++
	st.Bytes += bytes
	st.Total += total
	st.Self += self
}

// Add folds the spans of one operation into the summary. op[0] must be
// the root and every span's parent must precede it; spans are in start
// order, as one goroutine records them.
func (s *Summary) Add(op []Span) error {
	if len(op) == 0 {
		return fmt.Errorf("spans: empty operation")
	}
	if op[0].Parent != -1 {
		return fmt.Errorf("spans: op %d: first span %q is not a root", op[0].Op, op[0].Name)
	}
	// covered[i] is the part of span i's interval its children cover;
	// reach[i] is the furthest end among them. Children arrive in start
	// order, so clipping each to [max(parent start, reach), parent end]
	// measures the union of their intervals inside the parent.
	covered := make([]int64, len(op))
	reach := make([]int64, len(op))
	for i := range op {
		reach[i] = op[i].Start
	}
	for i := 1; i < len(op); i++ {
		c := op[i]
		p := int(c.Parent)
		if p < 0 || p >= i || c.Op != op[0].Op {
			s.Misnested++
			continue
		}
		par := op[p]
		if c.Start < par.Start || c.End > par.End || c.End < c.Start {
			s.Misnested++
		}
		lo, hi := max(c.Start, reach[p]), min(c.End, par.End)
		if hi > lo {
			covered[p] += hi - lo
			reach[p] = hi
		}
	}
	for i, sp := range op {
		dur := sp.End - sp.Start
		self := dur - covered[i]
		bump(s.Layers, sp.Layer(), sp.Bytes, dur, self)
		bump(s.Names, sp.Name, sp.Bytes, dur, self)
	}
	s.Ops++
	s.OpTime += op[0].End - op[0].Start
	return nil
}

// SelfSum is the sum of every layer's self time.
func (s *Summary) SelfSum() int64 {
	var t int64
	for _, st := range s.Layers {
		t += st.Self
	}
	return t
}

// Tolerance is the largest share by which the per-layer self times may
// differ from the summed operation time. Spans recorded on one
// goroutine nest exactly, so any gap comes from a child outside its
// parent or from overlapping children — both attribution errors.
const Tolerance = 0.001

// Check verifies the two invariants: every child lies inside its
// parent, and per-layer self times add up to operation time within
// Tolerance.
func (s *Summary) Check() error {
	if s.Misnested > 0 {
		return fmt.Errorf("spans: %d spans lie outside their parent", s.Misnested)
	}
	if s.OpTime <= 0 {
		return nil
	}
	gap := float64(s.SelfSum()-s.OpTime) / float64(s.OpTime)
	if gap < -Tolerance || gap > Tolerance {
		return fmt.Errorf("spans: layer self times sum to %d ns, operations took %d ns (%.3f%% apart, tolerance %.1f%%)",
			s.SelfSum(), s.OpTime, 100*gap, 100*Tolerance)
	}
	return nil
}

// Print writes the per-layer table: calls, bytes, self time and its
// share of operation time.
func (s *Summary) Print(w io.Writer) {
	names := make([]string, 0, len(s.Layers))
	for n := range s.Layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %12s %16s %14s %8s\n", "layer", "calls", "bytes", "self_ms", "self_%")
	for _, n := range names {
		st := s.Layers[n]
		share := 0.0
		if s.OpTime > 0 {
			share = 100 * float64(st.Self) / float64(s.OpTime)
		}
		fmt.Fprintf(w, "%-12s %12d %16d %14.3f %8.2f\n", n, st.Calls, st.Bytes, float64(st.Self)/1e6, share)
	}
	fmt.Fprintf(w, "ops %d, op time %.3f ms, self-time sum %.3f ms, misnested %d\n",
		s.Ops, float64(s.OpTime)/1e6, float64(s.SelfSum())/1e6, s.Misnested)
}

// Write emits spans as tab-separated lines:
// op, id, parent, name, start, end, bytes.
func Write(w io.Writer, ss []Span) error {
	bw := bufio.NewWriter(w)
	for _, sp := range ss {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", sp.Op, sp.ID, sp.Parent, sp.Name, sp.Start, sp.End, sp.Bytes)
	}
	return bw.Flush()
}

// Read parses Write's format and calls fn once per operation, with that
// operation's spans in file order.
func Read(r io.Reader, fn func(op []Span) error) error {
	sc := bufio.NewScanner(r)
	var cur []Span
	flush := func() error {
		if len(cur) == 0 {
			return nil
		}
		err := fn(cur)
		cur = cur[:0]
		return err
	}
	line := 0
	for sc.Scan() {
		line++
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 7 {
			return fmt.Errorf("spans: line %d: %d fields, want 7", line, len(f))
		}
		var n [7]int64
		for i, field := range f {
			if i == 3 {
				continue // the name
			}
			v, err := strconv.ParseInt(field, 10, 64)
			if err != nil {
				return fmt.Errorf("spans: line %d: %w", line, err)
			}
			n[i] = v
		}
		sp := Span{Op: n[0], ID: int32(n[1]), Parent: int32(n[2]), Name: f[3], Start: n[4], End: n[5], Bytes: n[6]}
		if len(cur) > 0 && cur[0].Op != sp.Op {
			if err := flush(); err != nil {
				return err
			}
		}
		cur = append(cur, sp)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}
