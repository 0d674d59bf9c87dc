package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestRowsMatchBaseline pins the registry to the committed baseline
// without running a row: the same keys in the same order, so a dropped
// or renamed row fails here and not only in the bench gate. Every gate
// must name a row that comes earlier, or no driver can enforce it.
func TestRowsMatchBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline []Result
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	var got, want []Key
	seen := make(map[Key]bool)
	for _, row := range Rows() {
		if row.Gate != nil && !seen[row.Base] {
			t.Errorf("%s: gate base %s is not an earlier row", row.Key, row.Base)
		}
		seen[row.Key] = true
		got = append(got, row.Key)
	}
	for _, r := range baseline {
		want = append(want, r.Key)
	}
	if !slices.Equal(got, want) {
		t.Errorf("registry rows differ from BENCH_baseline.json:\nregistry: %v\nbaseline: %v", got, want)
	}
}
