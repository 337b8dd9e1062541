// Package testkit holds what the tests of several packages share: a
// metrics lookup, and the process harness the kill -9 gauntlets drive the
// gridschedd and gridrouter binaries with. Only tests import it.
package testkit

import (
	"slices"

	"gridsched/internal/metrics"
)

// Lookup finds the sample of family name whose labels are exactly labels
// (suffix "" except for a summary's "_sum" and "_count").
func Lookup(ms []metrics.Metric, name, suffix string, labels ...metrics.Label) (float64, bool) {
	for i := range ms {
		for _, s := range ms[i].Samples {
			if ms[i].Name == name && s.Suffix == suffix && slices.Equal(s.Labels, labels) {
				return s.Value, true
			}
		}
	}
	return 0, false
}
