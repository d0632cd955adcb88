package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "search_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "search_qps", Better: "higher", Bound: 0.10}
	s := func(v, spread float64) summary { return summary{Value: v, Spread: spread, N: 5} }
	cases := []struct {
		def  metricDef
		a, b summary
		want string
	}{
		{lower, s(10, 0.2), s(10.9, 0.2), "ok"},
		{lower, s(10, 0.2), s(11.2, 0.2), "regressed"},
		{lower, s(10, 0.2), s(5, 0.2), "ok"}, // better
		{higher, s(1000, 20), s(880, 20), "regressed"},
		{higher, s(1000, 20), s(1200, 20), "ok"},
		{lower, s(10, 2.5), s(10, 0.2), "unresolved"}, // 2.5/sqrt(5) = 1.12: the median is uncertain by more than the bound
		{lower, s(10, 0.2), s(13, 3.2), "unresolved"},
		{lower, s(10, 1.5), s(10, 0.2), "ok"}, // wide windows, but five of them pin the median to 0.67
	}
	for _, c := range cases {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.def.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
	if w := worsening(higher, 1000, 900); w != 0.1 {
		t.Errorf("worsening(higher, 1000 -> 900) = %v, want 0.1", w)
	}
}
