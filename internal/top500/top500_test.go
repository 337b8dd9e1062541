package top500

import (
	"math"
	"testing"
)

func TestRmaxEndpoints(t *testing.T) {
	r1, err := Rmax(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-280.6e6) > 1 {
		t.Fatalf("Rmax(1) = %v, want 280.6e6", r1)
	}
	r500, err := Rmax(500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r500-4.005e6)/4.005e6 > 1e-9 {
		t.Fatalf("Rmax(500) = %v, want 4.005e6", r500)
	}
}

func TestRmaxMonotoneDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for rank := 1; rank <= 500; rank++ {
		r, err := Rmax(rank)
		if err != nil {
			t.Fatal(err)
		}
		if r >= prev {
			t.Fatalf("Rmax not decreasing at rank %d: %v >= %v", rank, r, prev)
		}
		prev = r
	}
}

func TestRmaxRejectsBadRanks(t *testing.T) {
	for _, rank := range []int{0, -1, 501} {
		if _, err := Rmax(rank); err == nil {
			t.Errorf("Rmax(%d) accepted", rank)
		}
	}
}

func TestSamplerBoundsAndDivisor(t *testing.T) {
	s := NewSampler(1)
	for i := 0; i < 10000; i++ {
		v := s.Sample()
		if lo, hi := rank500Mflops/100, rank1Mflops/100; v < lo || v > hi {
			t.Fatalf("sample %v outside [%v, %v]", v, lo, hi)
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	a := sampleN(NewSampler(42), 100)
	b := sampleN(NewSampler(42), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("samples diverge at %d", i)
		}
	}
	c := sampleN(NewSampler(43), 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestSamplerHeavyTail(t *testing.T) {
	// The power law means the mean should sit well above the median.
	s := NewSampler(7)
	v := sampleN(s, 20000)
	var sum float64
	above := 0
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	for _, x := range v {
		if x > mean {
			above++
		}
	}
	frac := float64(above) / float64(len(v))
	if frac > 0.45 {
		t.Fatalf("fraction above mean = %v; distribution not right-skewed", frac)
	}
}

// sampleN returns n worker speeds in MFLOPS.
func sampleN(s *Sampler, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Sample()
	}
	return out
}
