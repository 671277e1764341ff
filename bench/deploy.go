package main

import (
	"fmt"
	"time"

	"rt3/internal/deploy"
	"rt3/internal/pattern"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// shape is a deployment's identity: the model, its V/F levels and the
// pattern sparsity of each. The seed fixes weights and pattern sets, so
// the deployment is the same in every run; -seed only drives requests.
type shape struct {
	cfg      transformer.Config
	levels   []string  // fastest first, Table I names
	sparsity []float64 // per level
	psize    int       // pattern block size
	patterns int       // candidate patterns per set
	seed     int64
}

// referenceShape is the one deployment every number in this benchmark
// is measured on: the 192x768 shapes BENCH_kernels.json tuned the
// kernels for, behind a real encoder-decoder LM.
var referenceShape = shape{
	cfg: transformer.Config{
		Vocab: 512, Dim: 192, Heads: 4, FFHidden: 768,
		EncLayers: 2, DecLayers: 2, SeqLen: 256,
	},
	levels:   []string{"l6", "l4", "l3"},
	sparsity: []float64{0.3, 0.5, 0.7},
	psize:    8,
	patterns: 4,
	seed:     20210705,
}

// serveConfig is the shipped serve.Config with only the fields the
// issue names set, so a later change of a default moves the numbers.
func serveConfig(prefixCacheRows int) serve.Config {
	return serve.Config{
		Generate:        true,
		MaxBatch:        8,
		MaxGenTokens:    256,
		PrefixCacheRows: prefixCacheRows,
	}
}

// setupTimes splits one set-up into the layers that pay for it.
type setupTimes struct {
	generateSetsMS  float64
	encodeDecodeMS  float64
	engineBuildMS   float64
	firstResponseMS float64
	totalS          float64
	bundleBytes     int
	setBytesMean    float64
	modeledSwitchMS float64 // cost model's mean answer over the levels
}

// deployment is a started server over the reference engine.
type deployment struct {
	sh     shape
	bundle *deploy.Bundle
	eng    *serve.Engine
	srv    *serve.Server
	setup  setupTimes
}

// buildDeployment performs one full set-up: model, pattern sets, bundle
// encode/decode (the artifact a device would flash), engine build,
// server start and one warm response. With a tracer the replica and the
// kernel format are the benchmark's timing shims around the defaults.
func buildDeployment(sh shape, cfg serve.Config, tr *tracer) (*deployment, error) {
	t0 := time.Now()
	d, err := buildEngine(sh, tr)
	if err != nil {
		return nil, err
	}
	tFirst := time.Now()
	d.srv = serve.New(d.eng, cfg)
	d.srv.Start()
	warm := make([]int, 16)
	for i := range warm {
		warm[i] = (i*37 + 11) % sh.cfg.Vocab
	}
	ch, err := d.srv.SubmitGen(warm, 2, -1)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	if resp := <-ch; resp.Err != nil {
		d.close()
		return nil, fmt.Errorf("first response: %w", resp.Err)
	}
	d.setup.firstResponseMS = millis(time.Since(tFirst))
	d.setup.totalS = time.Since(t0).Seconds()
	return d, nil
}

// buildEngine is the set-up up to a built engine, with no server yet.
func buildEngine(sh shape, tr *tracer) (*deployment, error) {
	rng := newRand(sh.seed)
	model := transformer.NewLMModel(sh.cfg, rng)

	tSets := time.Now()
	ref := model.PrunableLinears()[0].W.Value
	sets := make([]*pattern.Set, len(sh.sparsity))
	for i, sp := range sh.sparsity {
		sets[i] = pattern.GenerateSet(ref, sh.psize, sp, sh.patterns, rng)
	}
	d := &deployment{sh: sh}
	d.setup.generateSetsMS = millis(time.Since(tSets))

	tBundle := time.Now()
	data, err := serve.BundleFromModel(model, sets, sh.levels).Encode()
	if err != nil {
		return nil, fmt.Errorf("encode bundle: %w", err)
	}
	if d.bundle, err = deploy.Decode(data); err != nil {
		return nil, fmt.Errorf("decode bundle: %w", err)
	}
	d.setup.encodeDecodeMS = millis(time.Since(tBundle))
	d.setup.bundleBytes = len(data)
	costs := rtswitch.DefaultSwitchCostModel()
	for i := range sets {
		n, err := d.bundle.SetBytes(i)
		if err != nil {
			return nil, err
		}
		d.setup.setBytesMean += float64(n) / float64(len(sets))
		d.setup.modeledSwitchMS += costs.PatternSwitchMS(n) / float64(len(sets))
	}

	tEngine := time.Now()
	var replica serve.Model = model
	ecfg := serve.EngineConfig{}
	if tr != nil {
		replica = &tracedModel{LMModel: model, tr: tr}
		ecfg.Format = tracedFormat
	}
	if d.eng, err = serve.NewEngineConfigured(d.bundle, []serve.Model{replica}, costs, ecfg); err != nil {
		return nil, fmt.Errorf("build engine: %w", err)
	}
	if tr != nil {
		tr.level = d.eng.Level
	}
	d.setup.engineBuildMS = millis(time.Since(tEngine))
	return d, nil
}

// close stops the server (draining in-flight work) and the engine.
func (d *deployment) close() {
	d.srv.Stop()
	d.eng.Close()
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
