package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "wall_s_per_unit", Better: "lower", Bound: 0.10}
	tight := func(p50 float64) Dist { return Dist{N: 3, P25: p50 * 0.99, P50: p50, P75: p50 * 1.01} }
	wide := Dist{N: 3, P25: 0.8, P50: 1, P75: 1.2}
	for _, tc := range []struct {
		name string
		d    metricDecl
		a, b Dist
		want string
	}{
		{"same", lower, tight(1), tight(1.005), verdictUnchanged},
		{"worse within bound", lower, tight(1), tight(1.08), verdictUnchanged},
		{"worse beyond bound", lower, tight(1), tight(1.12), verdictRegressed},
		{"better beyond A's quartiles", lower, tight(1), tight(0.9), verdictImproved},
		{"better but inside A's quartiles", lower, tight(1), tight(0.99), verdictUnchanged},
		{"A too noisy to tell", lower, wide, tight(2), verdictUnresolved},
		{"B too noisy to tell", lower, tight(1), wide, verdictUnresolved},
		{"higher is better", metricDecl{Better: "higher", Bound: 0.10}, tight(1), tight(0.8), verdictRegressed},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
