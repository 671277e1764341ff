package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/pattern"
)

// BenchmarkKernelMulInto measures the unified execution API on one
// Transformer-projection-shaped product: dense baseline vs the
// pattern-packed kernel, across serving-relevant batch sizes; run with
// -cpu 1,2 to hold the mat.Fork fan-out of the larger batches against
// inline execution. ns/op is per MulInto call.
func BenchmarkKernelMulInto(b *testing.B) {
	const dim = 192
	rng := rand.New(rand.NewSource(29))
	w := mat.New(dim, dim)
	w.Randomize(rng, 1)
	set := pattern.GenerateSet(w, 8, 0.7, 4, rng)

	for _, batch := range []int{8, 64, 512} {
		x := mat.New(batch, dim)
		x.Randomize(rng, 1)
		dst := mat.New(batch, dim)
		for _, format := range []string{"dense", "pattern"} {
			k, err := kernel.Build(format, w, kernel.Options{Set: set})
			if err != nil {
				b.Fatal(err)
			}
			k.MulInto(dst, x) // warm the scratch before timing
			b.Run(fmt.Sprintf("%s/batch%d", format, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.MulInto(dst, x)
				}
			})
		}
	}
}
