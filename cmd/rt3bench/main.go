// Command rt3bench regenerates the paper's tables and figures on the
// synthetic substrate and prints them to stdout, plus a kernel
// micro-benchmark over the unified execution formats.
//
// Usage:
//
//	rt3bench -exp all
//	rt3bench -exp tab3 -scale small
//	rt3bench -exp tab1|tab2|tab3|tab4|fig3a|fig3bc|fig4|fig5|kernels|autotune|cluster|chaos
//	rt3bench -exp kernels -kernel pattern,dense
//	rt3bench -exp autotune -autotune-duration 3s -autotune-rps 300
//	rt3bench -exp cluster -cluster-nodes 1,2,4 -cluster-rps 700
//	rt3bench -exp chaos -chaos-nodes 3 -chaos-scale 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rt3/internal/experiments"
	"rt3/internal/kernel"
)

// parseNodeCounts parses the -cluster-nodes list and sorts it ascending
// (the scaling ratio compares the last arm to the first).
func parseNodeCounts(s string) ([]int, error) {
	var nodes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cluster-nodes entry %q (want positive node counts)", part)
		}
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rt3bench: ")
	exp := flag.String("exp", "all", "experiment: all, tab1, tab2, tab3, tab4, fig3a, fig3bc, fig4, fig5, kernels, autotune, cluster, chaos")
	scaleFlag := flag.String("scale", "tiny", "model scale: tiny or small")
	kernels := flag.String("kernel", "all", "kernels experiment: comma-separated registry formats ("+strings.Join(kernel.Formats(), ", ")+") or all")
	dim := flag.Int("kernel-dim", 192, "kernels experiment: square projection size")
	batch := flag.Int("kernel-batch", 64, "kernels experiment: batch rows per MulInto call")
	sparsity := flag.Float64("kernel-sparsity", 0.7, "kernels experiment: pattern sparsity")
	seqs := flag.Int("kernel-seqs", 8, "kernels experiment batched mode: sequences fused per packed call (<=1 disables)")
	seqLen := flag.Int("kernel-seqlen", 6, "kernels experiment batched mode: rows per sequence (default below one 8-lane tile, so the per-sequence arm pays the padded-tile cost real per-request calls take)")
	atDuration := flag.Duration("autotune-duration", 2*time.Second, "autotune experiment: load duration per arm")
	atRPS := flag.Float64("autotune-rps", 600, "autotune experiment: base arrival rate (bursts multiply it)")
	atBurst := flag.Float64("autotune-burst", 4, "autotune experiment: burst rate multiplier")
	atPeriod := flag.Duration("autotune-period", 400*time.Millisecond, "autotune experiment: burst square-wave period")
	atBattery := flag.Float64("autotune-battery", 0.6, "autotune experiment: battery capacity in joules")
	atTarget := flag.Float64("autotune-target", 15, "autotune experiment: latency objective in ms")
	atSeed := flag.Int64("autotune-seed", 1, "autotune experiment: rng seed (decision trace is reproducible from it)")
	clNodes := flag.String("cluster-nodes", "1,2,4", "cluster experiment: comma-separated node counts for the scaling arms, ascending")
	clDuration := flag.Duration("cluster-duration", 1200*time.Millisecond, "cluster experiment: arrival window per arm")
	clRPS := flag.Float64("cluster-rps", 700, "cluster experiment: base arrival rate (bursts multiply it; sized to saturate one step-floored node)")
	clBurst := flag.Float64("cluster-burst", 3, "cluster experiment: burst rate multiplier")
	clPeriod := flag.Duration("cluster-period", 300*time.Millisecond, "cluster experiment: burst square-wave period")
	clSessions := flag.Int("cluster-sessions", 96, "cluster experiment: distinct session keys")
	clStep := flag.Duration("cluster-step-floor", time.Millisecond, "cluster experiment: minimum wall time per fused step — pins per-node capacity so the scaling ratio measures the cluster, not the host")
	clPolicy := flag.String("cluster-policy", "least-loaded", "cluster experiment: router policy (hash, least-loaded, p2c)")
	clSeed := flag.Int64("cluster-seed", 1, "cluster experiment: rng seed (router decision traces replay from it)")
	chNodes := flag.Int("chaos-nodes", 3, "chaos experiment: fleet size (>= 2; faults never target node 0, the dense-verify reference)")
	chStep := flag.Duration("chaos-step-floor", time.Millisecond, "chaos experiment: minimum wall time per fused step — long enough that a crash reliably lands mid-generation")
	chScale := flag.Float64("chaos-scale", 1, "chaos experiment: time scale applied to every trace bucket window (<1 compresses)")
	chSeed := flag.Int64("chaos-seed", 1, "chaos experiment: rng seed (fault schedules, workloads, and router decisions all replay from it)")
	jsonPath := flag.String("json", "", "write structured results plus a metrics snapshot to this file (kernels, autotune, cluster and chaos experiments)")
	flag.Parse()
	if *jsonPath != "" {
		jsonRep = &jsonReport{}
	}

	scale := experiments.ScaleTiny
	switch *scaleFlag {
	case "tiny":
	case "small":
		scale = experiments.ScaleSmall
	default:
		log.Fatalf("unknown scale %q (want tiny or small)", *scaleFlag)
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
	run("kernels", func() error {
		return runKernelBench(*kernels, kernelBenchSpec{
			dim:      *dim,
			batch:    *batch,
			psize:    8,
			sparsity: *sparsity,
			minTime:  50 * time.Millisecond,
			seqs:     *seqs,
			seqLen:   *seqLen,
		})
	})
	run("autotune", func() error {
		return runAutotuneBench(autotuneBenchSpec{
			duration:    *atDuration,
			rps:         *atRPS,
			burstPeriod: *atPeriod,
			burstFactor: *atBurst,
			batteryJ:    *atBattery,
			targetMS:    *atTarget,
			seed:        *atSeed,
		})
	})
	run("cluster", func() error {
		nodes, err := parseNodeCounts(*clNodes)
		if err != nil {
			return err
		}
		return runClusterBench(clusterBenchSpec{
			nodes:       nodes,
			duration:    *clDuration,
			rps:         *clRPS,
			burstPeriod: *clPeriod,
			burstFactor: *clBurst,
			sessions:    *clSessions,
			stepFloor:   *clStep,
			policy:      *clPolicy,
			seed:        *clSeed,
		})
	})
	run("chaos", func() error {
		if *chNodes < 2 {
			return fmt.Errorf("-chaos-nodes %d: the chaos fleet needs at least 2 nodes", *chNodes)
		}
		return runChaosBench(chaosBenchSpec{
			nodes:     *chNodes,
			stepFloor: *chStep,
			scale:     *chScale,
			seed:      *chSeed,
		})
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, tab1, tab2, tab3, tab4, fig3a, fig3bc, fig4, fig5, kernels, autotune, cluster or chaos)\n", *exp)
		os.Exit(2)
	}
	if jsonRep != nil {
		if jsonRep.Kernels == nil && jsonRep.Autotune == nil && jsonRep.Cluster == nil && jsonRep.Chaos == nil {
			log.Fatalf("-json collects kernels, autotune, cluster and chaos results; -exp %s produced none", *exp)
		}
		if err := writeJSONReport(*jsonPath); err != nil {
			log.Fatalf("-json: %v", err)
		}
		fmt.Printf("wrote structured results to %s\n", *jsonPath)
	}
}
