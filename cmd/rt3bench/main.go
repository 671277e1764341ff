// Command rt3bench regenerates the paper's tables and figures on the
// synthetic substrate and prints them to stdout, and runs the serving
// experiments (kernels, autotune, cluster, chaos), each of which checks
// its floors on itself and exits nonzero when one is missed. Their
// shapes are the constants at the top of each experiment's file.
//
// Usage:
//
//	rt3bench -exp all
//	rt3bench -exp tab3 -scale small
//	rt3bench -exp tab1|tab2|tab3|tab4|fig3a|fig3bc|fig4|fig5|kernels|autotune|cluster|chaos
//	rt3bench -exp chaos -seed 2
//	rt3bench -exp autotune -json BENCH_autotune.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rt3/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rt3bench: ")
	exp := flag.String("exp", "all", "experiment: all, tab1, tab2, tab3, tab4, fig3a, fig3bc, fig4, fig5, kernels, autotune, cluster, chaos")
	scaleFlag := flag.String("scale", "tiny", "model scale: tiny or small")
	seed := flag.Int64("seed", 1, "rng seed of the autotune, cluster and chaos experiments (their decision traces replay from it)")
	jsonPath := flag.String("json", "", "write the kernels, autotune, cluster and chaos result rows plus a metrics snapshot to this file")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}

	ran := false
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		fmt.Printf("== %s ==\n", name)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	run("tab1", func() error {
		fmt.Print(experiments.TableI())
		return nil
	})
	run("tab2", func() error {
		res, err := experiments.TableII(scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	})
	run("tab3", func() error {
		for _, spec := range experiments.DefaultTable3Specs() {
			res, err := experiments.TableIII(scale, spec)
			if err != nil {
				return err
			}
			fmt.Println(res)
		}
		return nil
	})
	run("tab4", func() error {
		for _, ds := range []string{"WikiText-2", "RTE", "STS-B"} {
			res, err := experiments.TableIV(scale, ds)
			if err != nil {
				return err
			}
			fmt.Println(res)
		}
		return nil
	})
	run("fig3a", func() error {
		res, err := experiments.Figure3a(scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	})
	run("fig3bc", func() error {
		for _, t := range []float64{104, 94} {
			res, err := experiments.Figure3bc(scale, t)
			if err != nil {
				return err
			}
			fmt.Println(res)
		}
		return nil
	})
	run("fig4", func() error {
		res, err := experiments.Figure4(scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	})
	run("fig5", func() error {
		res, err := experiments.Figure5(scale)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	})

	var rep jsonReport
	run("kernels", func() (err error) {
		rep.Kernels, err = runKernels()
		return enforce(rep.Kernels, err)
	})
	run("autotune", func() (err error) {
		rep.Autotune, err = runAutotune(*seed)
		return enforce(rep.Autotune, err)
	})
	run("cluster", func() (err error) {
		rep.Cluster, err = runCluster(*seed)
		return enforce(rep.Cluster, err)
	})
	run("chaos", func() (err error) {
		rep.Chaos, err = runChaos(*seed)
		return enforce(rep.Chaos, err)
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, tab1, tab2, tab3, tab4, fig3a, fig3bc, fig4, fig5, kernels, autotune, cluster or chaos)\n", *exp)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if rep == (jsonReport{}) {
			log.Fatalf("-json collects kernels, autotune, cluster and chaos results; -exp %s produced none", *exp)
		}
		if err := rep.write(*jsonPath); err != nil {
			log.Fatalf("-json: %v", err)
		}
		fmt.Printf("wrote structured results to %s\n", *jsonPath)
	}
}
