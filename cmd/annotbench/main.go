// Command annotbench regenerates the paper's evaluation: every figure and
// results section has a corresponding experiment (E1–E10, plus E11 for the
// §6 removal extension) whose table it prints. E10 times the two miners,
// bitmap Apriori and FP-Growth, across the support grid.
//
// Usage:
//
//	annotbench                 # run everything at paper scale (≈8000 tuples)
//	annotbench -quick          # smoke scale
//	annotbench -experiment E1  # one experiment
//	annotbench -tuples 4000    # override the base relation size
package main

import (
	"flag"
	"fmt"
	"os"

	"annotadb/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "annotbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("annotbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "run a single experiment (E1..E11); empty runs all")
		quick      = fs.Bool("quick", false, "smoke-test scale instead of paper scale")
		tuples     = fs.Int("tuples", 0, "override base relation size")
		seed       = fs.Int64("seed", 1, "workload seed")
		sup        = fs.Float64("sup", 0, "override minimum support")
		conf       = fs.Float64("conf", 0, "override minimum confidence")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := bench.Full()
	if *quick {
		p = bench.Quick()
	}
	if *tuples > 0 {
		p.BaseTuples = *tuples
	}
	if *sup > 0 {
		p.MinSupport = *sup
	}
	if *conf > 0 {
		p.MinConf = *conf
	}
	p.Seed = *seed

	fmt.Printf("annotadb evaluation — base %d tuples, min support %.2f, min confidence %.2f, seed %d\n\n",
		p.BaseTuples, p.MinSupport, p.MinConf, p.Seed)
	if *experiment != "" {
		return bench.RunOne(os.Stdout, *experiment, p)
	}
	return bench.RunAll(os.Stdout, p)
}
