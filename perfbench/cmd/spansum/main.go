// Command spansum summarises a span file written by a traced benchmark
// run: per-layer call count, bytes and self time. It exits 1 when a
// child span lies outside its parent or the per-layer self times do not
// add up to operation time within spans.Tolerance.
//
// Usage: go run ./cmd/spansum <file.tsv>   (from the perfbench directory)
package main

import (
	"fmt"
	"os"

	"cxlpmem/perfbench/spans"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: spansum <spans.tsv>")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer f.Close()
	// Operation roots are named "op" or "gate"; each kind is summarised
	// on its own so end-of-run gates do not dilute per-op figures.
	byRoot := map[string]*spans.Summary{}
	var order []string
	err = spans.Read(f, func(op []spans.Span) error {
		s, ok := byRoot[op[0].Name]
		if !ok {
			s = spans.NewSummary()
			byRoot[op[0].Name] = s
			order = append(order, op[0].Name)
		}
		return s.Add(op)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := false
	for _, root := range order {
		s := byRoot[root]
		fmt.Printf("== %s ==\n", root)
		s.Print(os.Stdout)
		if err := s.Check(); err != nil {
			fmt.Println("CHECK FAILED:", err)
			failed = true
		} else {
			fmt.Printf("check ok: nesting exact, self times within %.1f%% of op time\n", 100*spans.Tolerance)
		}
	}
	if failed {
		os.Exit(1)
	}
}
