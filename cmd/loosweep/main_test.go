package main

import (
	"reflect"
	"testing"
)

// TestSelectSweeps resolves every -fig and -ablation name the driver
// accepts, and rejects unknown ones, without running a simulation.
func TestSelectSweeps(t *testing.T) {
	names := func(ss []sweep) []string {
		var out []string
		for _, s := range ss {
			out = append(out, s.name)
		}
		return out
	}
	for _, c := range []struct {
		table        []sweep
		kind, prefix string
		value        string
		want         []string
	}{
		{figures, "figure", "fig", "", nil},
		{figures, "figure", "fig", "4", []string{"fig4"}},
		{figures, "figure", "fig", "5", []string{"fig5"}},
		{figures, "figure", "fig", "6", []string{"fig6"}},
		{figures, "figure", "fig", "8", []string{"fig8"}},
		{figures, "figure", "fig", "9", []string{"fig9"}},
		{figures, "figure", "fig", "all", []string{"fig4", "fig5", "fig6", "fig8", "fig9"}},
		{ablations, "ablation", "", "", nil},
		{ablations, "ablation", "", "recovery", []string{"recovery"}},
		{ablations, "ablation", "", "crc", []string{"crc"}},
		{ablations, "ablation", "", "fwd", []string{"fwd"}},
		{ablations, "ablation", "", "iqpressure", []string{"iqpressure"}},
		{ablations, "ablation", "", "crcpolicy", []string{"crcpolicy"}},
		{ablations, "ablation", "", "monolithic", []string{"monolithic"}},
		{ablations, "ablation", "", "memdep", []string{"memdep"}},
		{ablations, "ablation", "", "predictor", []string{"predictor"}},
		{ablations, "ablation", "", "loops", []string{"loops"}},
		{ablations, "ablation", "", "all", []string{"recovery", "crc", "fwd", "iqpressure",
			"crcpolicy", "monolithic", "memdep", "predictor", "loops"}},
	} {
		got, err := selectSweeps(c.table, c.kind, c.prefix, c.value)
		if err != nil {
			t.Errorf("%s %q: %v", c.kind, c.value, err)
			continue
		}
		if !reflect.DeepEqual(names(got), c.want) {
			t.Errorf("%s %q selects %v, want %v", c.kind, c.value, names(got), c.want)
		}
		for _, s := range got {
			if (s.run == nil) != (s.name == "loops") {
				t.Errorf("%s %q: entry %s has run=nil %v; only loops has no table", c.kind, c.value, s.name, s.run == nil)
			}
		}
	}

	for _, c := range []struct {
		table        []sweep
		kind, prefix string
		value        string
	}{
		{figures, "figure", "fig", "7"},
		{figures, "figure", "fig", "fig4"},
		{ablations, "ablation", "", "nope"},
		{ablations, "ablation", "", "4"},
	} {
		if _, err := selectSweeps(c.table, c.kind, c.prefix, c.value); err == nil {
			t.Errorf("%s %q resolved; want an unknown-name error", c.kind, c.value)
		}
	}
}
