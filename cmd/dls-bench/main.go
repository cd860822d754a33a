// Command dls-bench regenerates every experiment in the paper
// reproduction (E1…E12) and its extensions (X1…): the three
// execution-diagram figures and the empirical checks of every theorem
// and lemma. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for the recorded results. Performance is measured by
// the layered benchmark under bench/, not here.
//
// Usage:
//
//	dls-bench               # run everything
//	dls-bench -id E6        # run one experiment
//	dls-bench -seed 7       # change the reproducibility seed
//	dls-bench -list         # list experiments
//	dls-bench -format csv   # CSV tables instead of text
//	dls-bench -o out.txt    # write to a file instead of stdout
//	dls-bench -parallel     # run experiments concurrently
//
// A failed experiment or a failed write exits 1; a bad flag value
// exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	"dlsbl/internal/experiments"
)

// options are the parsed command-line flags that select and format the
// experiments.
type options struct {
	id       string
	seed     int64
	list     bool
	format   string
	parallel bool
}

func main() {
	var opts options
	flag.StringVar(&opts.id, "id", "", "run only this experiment (E1…E12, X1…)")
	flag.Int64Var(&opts.seed, "seed", 42, "seed for randomized experiments")
	flag.BoolVar(&opts.list, "list", false, "list experiments and exit")
	flag.StringVar(&opts.format, "format", "text", "output format: text or csv")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	flag.BoolVar(&opts.parallel, "parallel", false, "run experiments concurrently (results still print in order)")
	flag.Parse()

	if opts.format != "text" && opts.format != "csv" {
		fmt.Fprintf(os.Stderr, "dls-bench: unknown format %q (want text or csv)\n", opts.format)
		os.Exit(2)
	}
	if _, ok := experiments.ByID(opts.id); opts.id != "" && !ok {
		fmt.Fprintf(os.Stderr, "dls-bench: unknown experiment %q (use -list)\n", opts.id)
		os.Exit(2)
	}
	if err := emit(*outPath, opts); err != nil {
		fmt.Fprintf(os.Stderr, "dls-bench: %v\n", err)
		os.Exit(1)
	}
}

// emit runs opts with its output going to the file at path, or to stdout
// when path is empty. A write or close failure is an error: output that
// never reached its destination must not pass for a successful run.
func emit(path string, opts options) error {
	if path == "" {
		return run(opts, os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := run(opts, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run lists the experiments or runs the selected ones, writing each
// result to w in order. It stops at the first failed experiment or
// failed write.
func run(opts options, w io.Writer) error {
	if opts.list {
		for _, e := range experiments.All() {
			if _, err := fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title); err != nil {
				return err
			}
		}
		return nil
	}

	toRun := experiments.All()
	if opts.id != "" {
		e, ok := experiments.ByID(opts.id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", opts.id)
		}
		toRun = []experiments.Experiment{e}
	}

	type slot struct {
		res experiments.Result
		err error
	}
	results := make([]slot, len(toRun))
	if opts.parallel {
		var wg sync.WaitGroup
		for i, e := range toRun {
			wg.Add(1)
			go func(i int, e experiments.Experiment) {
				defer wg.Done()
				results[i].res, results[i].err = e.Run(opts.seed)
			}(i, e)
		}
		wg.Wait()
	} else {
		for i, e := range toRun {
			results[i].res, results[i].err = e.Run(opts.seed)
		}
	}
	for i, e := range toRun {
		if results[i].err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, results[i].err)
		}
		text := results[i].res.String()
		if opts.format == "csv" {
			text = results[i].res.CSV()
		}
		if _, err := fmt.Fprintln(w, text); err != nil {
			return err
		}
	}
	return nil
}
