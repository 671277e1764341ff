package main

import (
	"sync"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine,
// and for minutes at a time identical runs are 20-60% slower on it
// (neighbours on the same caches and memory; no steal time shows). Wall
// times alone then spread wider than any bound the driver allows. So every
// run also times a fixed unit of the benchmark's own work —
// plain Go, none of the repository's code — every refPeriod for as long
// as it runs, and reports its times and rates as they would read on a
// host where that unit takes refNominal: times are divided, rates
// multiplied, by mean unit time / refNominal over the same phase. The
// mean, not the median, because a rate is work over total time and so
// pays for the stalls a median leaves out: over ten runs in a noisy
// hour decode_heavy's throughput followed the mean unit time with
// exponent -1.03 (median: -1.7) and its spread fell from 30% to 4%.
//
// What this cannot tell apart: a change that makes the program press
// harder on the shared caches slows the unit too, and reads a little
// better than it is. The raw factor is printed with every run.
const (
	refPeriod  = 25 * time.Millisecond
	refNominal = 900e3 // ns per unit, its mean on a quiet spell of the host the bounds were measured on
	refRows    = 8
	refIn      = 192
	refOut     = 768
)

// hostRef samples the reference unit beside the run.
type hostRef struct {
	a, b, c    []float64
	at         []int64   // ns since epoch at which each unit ended
	dur        []float64 // ns each unit took
	stop, done chan struct{}
	once       sync.Once
}

// startHostRef starts sampling; at is counted from epoch.
func startHostRef(epoch time.Time) *hostRef {
	h := &hostRef{
		a:    make([]float64, refRows*refIn),
		b:    make([]float64, refIn*refOut),
		c:    make([]float64, refRows*refOut),
		at:   make([]int64, 0, 4096),
		dur:  make([]float64, 0, 4096),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := range h.a {
		h.a[i] = float64(i%7) * 0.25
	}
	for i := range h.b {
		h.b[i] = float64(i%5) * 0.5
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(refPeriod)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				t := time.Now()
				h.unit()
				h.dur = append(h.dur, float64(time.Since(t).Nanoseconds()))
				h.at = append(h.at, time.Since(epoch).Nanoseconds())
			}
		}
	}()
	return h
}

// unit is the fixed work: an 8x192 by 192x768 product, the decode
// step's commonest shape, in straightforward Go.
func (h *hostRef) unit() {
	for i := 0; i < refRows; i++ {
		c := h.c[i*refOut : (i+1)*refOut]
		for j := range c {
			c[j] = 0
		}
		for k := 0; k < refIn; k++ {
			a := h.a[i*refIn+k]
			for j, b := range h.b[k*refOut : (k+1)*refOut] {
				c[j] += a * b
			}
		}
	}
}

// end stops sampling; the samples may be read after it returns.
func (h *hostRef) end() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}

// slowdown is the mean unit time of the samples taken in [from, to]
// (ns since epoch) over refNominal. Call it after end. With fewer than
// ten samples in the interval it answers 1: no correction.
func (h *hostRef) slowdown(from, to int64) float64 {
	var sum float64
	n := 0
	for i, t := range h.at {
		if t >= from && t <= to {
			sum += h.dur[i]
			n++
		}
	}
	if n < 10 {
		return 1
	}
	return sum / float64(n) / refNominal
}
