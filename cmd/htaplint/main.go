// Command htaplint runs the engine's invariant checkers over the
// module and exits non-zero on any finding. It is the machine-checked
// half of the contracts the code comments promise:
//
//	hotalloc   //htap:hotpath code and its callees never heap-allocate
//	guardedby  //htap:guardedby fields are touched only under their mutex
//	detmerge   //htap:deterministic code has no iteration-order variance
//	ctxflow    blocking API takes a context; library code mints no roots
//
// Usage:
//
//	go run ./cmd/htaplint ./...
//
// Patterns default to ./... relative to the current directory. CI runs
// it in the lint job, so a violation fails the build with the same
// file:line diagnostics shown locally.
package main

import (
	"fmt"
	"os"

	"elastichtap/internal/lint"
	"elastichtap/internal/lint/ctxflow"
	"elastichtap/internal/lint/detmerge"
	"elastichtap/internal/lint/guardedby"
	"elastichtap/internal/lint/hotalloc"
)

var analyzers = []*lint.Analyzer{
	hotalloc.Analyzer,
	guardedby.Analyzer,
	detmerge.Analyzer,
	ctxflow.Analyzer,
}

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "htaplint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "htaplint:", err)
		os.Exit(2)
	}
	bad := false
	for _, pkg := range pkgs {
		findings, err := pkg.Run(analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "htaplint:", err)
			os.Exit(2)
		}
		for _, f := range findings {
			bad = true
			fmt.Println(f)
		}
	}
	if bad {
		os.Exit(1)
	}
}
