package main

import "testing"

func TestCheckFig(t *testing.T) {
	for _, name := range append([]string{"all"}, figures...) {
		if err := checkFig(name); err != nil {
			t.Errorf("checkFig(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"bogus", "", "7", "All"} {
		if err := checkFig(name); err == nil {
			t.Errorf("checkFig(%q) accepted an unknown figure", name)
		}
	}
}
