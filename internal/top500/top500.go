// Package top500 samples worker compute capacities the way the paper does
// (§5.2): "each worker's computation capacity (in MFLOPS) is chosen
// randomly from [the] top500 list and is divided by 100".
//
// The June-2007 list itself is not redistributable, so we model its Rmax
// column with the power law R(rank) = R1 * rank^(-alpha) fit to the
// published endpoints (#1 BlueGene/L ~ 280.6 TFLOPS, #500 ~ 4.0 TFLOPS,
// giving alpha ~ 0.684). Sampling a uniform rank from this curve
// reproduces the heavy-tailed speed heterogeneity the original setup had.
package top500

import (
	"fmt"
	"math"
	"math/rand"
)

// Rmax endpoints of the June 2007 list, in MFLOPS.
const (
	rank1Mflops   = 280.6e6 // ~280.6 TFLOPS
	rank500Mflops = 4.005e6 // ~4.0 TFLOPS
	ranks         = 500
)

// alpha solves R(500)/R(1) = 500^-alpha.
var alpha = math.Log(rank1Mflops/rank500Mflops) / math.Log(ranks)

// Rmax returns the modeled Rmax (MFLOPS) of the given 1-based rank.
func Rmax(rank int) (float64, error) {
	if rank < 1 || rank > ranks {
		return 0, fmt.Errorf("top500: rank %d outside [1, %d]", rank, ranks)
	}
	return rank1Mflops * math.Pow(float64(rank), -alpha), nil
}

// Sampler draws worker speeds. It is deterministic given its seed.
type Sampler struct {
	rng     *rand.Rand
	divisor float64
}

// NewSampler returns a sampler dividing drawn Rmax values by the paper's
// divisor of 100.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed)), divisor: 100}
}

// Sample returns one worker speed in MFLOPS: Rmax(uniform rank)/divisor.
func (s *Sampler) Sample() float64 {
	rank := 1 + s.rng.Intn(ranks)
	r, err := Rmax(rank)
	if err != nil {
		// Unreachable: rank is always in range.
		panic(err)
	}
	return r / s.divisor
}
