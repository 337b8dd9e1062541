package metrics_test

import (
	"math"
	"testing"

	. "gridsched/internal/metrics"
)

func TestShareWindowEvictsOldest(t *testing.T) {
	w := NewShareWindow(4)
	if w.Len() != 0 || w.Share("a") != 0 {
		t.Fatalf("empty window: len %d share %g", w.Len(), w.Share("a"))
	}
	for _, k := range []string{"a", "a", "b", "a"} {
		w.Observe(k)
	}
	if w.Len() != 4 {
		t.Fatalf("len %d, want 4", w.Len())
	}
	if got := w.Share("a"); got != 0.75 {
		t.Fatalf("share a = %g, want 0.75", got)
	}
	// Four more observations push the first four out entirely.
	for i := 0; i < 4; i++ {
		w.Observe("c")
	}
	if got := w.Share("a"); got != 0 {
		t.Fatalf("share a after eviction = %g, want 0", got)
	}
	if got := w.Share("c"); got != 1 {
		t.Fatalf("share c = %g, want 1", got)
	}
}

func TestShareWindowPartialFill(t *testing.T) {
	w := NewShareWindow(100)
	w.Observe("x")
	w.Observe("y")
	w.Observe("x")
	if w.Len() != 3 {
		t.Fatalf("len %d, want 3", w.Len())
	}
	if got := w.Share("x"); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("share x = %g, want 2/3", got)
	}
}

// TestTableFamilies: rows become one labelled series per column family, in
// row order; no rows, no families (a leader with no tenant serves none of
// the per-tenant families, not empty ones).
func TestTableFamilies(t *testing.T) {
	type tenant struct {
		name     string
		weight   int64
		achieved float64
	}
	cols := []Column[tenant]{
		Col("gridsched_tenant_weight", KindGauge, func(r *tenant) float64 { return float64(r.weight) }),
		Col("gridsched_tenant_share_achieved", KindGauge, func(r *tenant) float64 { return r.achieved }),
	}
	of := func(r *tenant) []Label { return []Label{{"tenant", r.name}} }
	// The anonymous default tenant is the empty label value.
	ms := scrape(t, Table([]tenant{{"", 1, 0.2}, {"acme", 3, 0.75}}, of, cols...))
	wantSample(t, ms, KindGauge, "gridsched_tenant_weight", "", 1, Label{"tenant", ""})
	wantSample(t, ms, KindGauge, "gridsched_tenant_weight", "", 3, Label{"tenant", "acme"})
	wantSample(t, ms, KindGauge, "gridsched_tenant_share_achieved", "", 0.2, Label{"tenant", ""})
	wantSample(t, ms, KindGauge, "gridsched_tenant_share_achieved", "", 0.75, Label{"tenant", "acme"})
	if len(ms) != 2 || len(ms[0].Samples) != 2 {
		t.Fatalf("two tenants, two columns declared as %+v", ms)
	}
	if ms := Table(nil, of, cols...); len(ms) != 0 {
		t.Fatalf("no rows declared as %+v", ms)
	}
}
