package experiments

import (
	"os"
	"testing"
)

// TestRunnersMatchPreRefactorGoldens pins the Fig 7/8/9 comparisons and
// the Table VI rendering byte-for-byte to the outputs captured from the
// one-shot (pre-Intent-API) runners. The declarative Plan/Apply rebuild
// must not change a single byte of the paper artifacts.
func TestRunnersMatchPreRefactorGoldens(t *testing.T) {
	check := func(name, got string) {
		t.Helper()
		want, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from the pre-refactor output.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}

	f7, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	check("fig7.golden", f7.Render())

	f8, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	check("fig8.golden", f8.Render())

	f9, err := Fig9Run()
	if err != nil {
		t.Fatal(err)
	}
	check("fig9.golden", f9.Render())

	// The Fig 4 enumeration pins FindPaths: the nine paths in order and
	// every prune counter the render prints.
	p9, err := Paths9()
	if err != nil {
		t.Fatal(err)
	}
	check("paths9.golden", p9.Render())

	_, t6, err := Table6([]int{3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	check("table6.golden", t6)
}
