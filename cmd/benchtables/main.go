// Command benchtables regenerates the paper's evaluation tables (1–6), the
// extensions ablation (Table 7) and figure demonstrations from live runs of
// the fourteen benchmark workloads.
//
// Usage:
//
//	benchtables                 # all tables
//	benchtables -table 1        # one table
//	benchtables -figure 4       # one figure demo
//	benchtables -bench ferret,dedup -scale 2 -seed 7
//	benchtables -json           # every table as JSON
//
// Every number is measured in-process; nothing is replayed from files. See
// EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/tables"
)

func main() {
	var (
		table   = flag.Int("table", 0, "render only this table (1-7); 0 = all")
		asJSON  = flag.Bool("json", false, "emit every table as JSON")
		figure  = flag.Int("figure", 0, "render only this figure demo (1, 2 or 4)")
		scale   = flag.Int("scale", 1, "workload scale factor")
		seed    = flag.Int64("seed", 42, "scheduler seed")
		runs    = flag.Int("runs", 3, "timing runs per configuration (minimum)")
		bench   = flag.String("bench", "", "comma-separated benchmark subset")
		memMB   = flag.Int64("comparator-mem-mb", 0, "comparator memory budget in MB (0 = default)")
		timeout = flag.Duration("comparator-timeout", 30*time.Second, "comparator wall-time budget")
	)
	flag.Parse()

	if *figure != 0 {
		switch *figure {
		case 1:
			fmt.Println("Figure 1. An example execution of DJIT+")
			fmt.Print(tables.Figure1())
		case 2:
			fmt.Println("Figure 2. Vector clock state machine (observable evidence)")
			fmt.Print(tables.Figure2())
		case 4:
			fmt.Println("Figure 4. Indexing structure: m/4 -> m expansion")
			fmt.Print(tables.Figure4())
		default:
			fmt.Fprintf(os.Stderr, "no demo for figure %d (figure 3 is the implemented read path itself)\n", *figure)
			os.Exit(2)
		}
		return
	}

	cfg := tables.Config{
		Scale:             *scale,
		Seed:              *seed,
		TimingRuns:        *runs,
		ComparatorTimeout: *timeout,
	}
	if *memMB > 0 {
		cfg.ComparatorMemLimit = *memMB << 20
	}
	if *bench != "" {
		cfg.Benchmarks = strings.Split(*bench, ",")
	}
	r := tables.NewRunner(cfg)

	if *asJSON {
		if err := r.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	render := map[int]func(){
		1: func() { r.RenderTable1(os.Stdout) },
		2: func() { r.RenderTable2(os.Stdout) },
		3: func() { r.RenderTable3(os.Stdout) },
		4: func() { r.RenderTable4(os.Stdout) },
		5: func() { r.RenderTable5(os.Stdout) },
		6: func() { r.RenderTable6(os.Stdout) },
		7: func() { r.RenderTable7(os.Stdout) },
	}
	if *table != 0 {
		f, ok := render[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown table %d\n", *table)
			os.Exit(2)
		}
		f()
		return
	}
	for i := 1; i <= 7; i++ {
		render[i]()
	}
}
