package harness

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"disco/internal/types"
)

func TestPersonFleetInProcess(t *testing.T) {
	f, err := NewPersonFleet(FleetConfig{Sources: 3, RowsPerSource: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v, err := f.M.Query(`count(person)`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(types.Int(60)) {
		t.Errorf("count = %s, want 60", v)
	}
}

func TestPersonFleetTCP(t *testing.T) {
	f, err := NewPersonFleet(FleetConfig{Sources: 2, RowsPerSource: 10, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v, err := f.M.Query(`count(person)`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(types.Int(20)) {
		t.Errorf("count = %s", v)
	}
	if f.TotalQueries() == 0 || f.TotalBytesOut() == 0 {
		t.Error("server stats should register traffic")
	}
}

func TestFleetAvailabilityToggle(t *testing.T) {
	f, err := NewPersonFleet(FleetConfig{Sources: 2, RowsPerSource: 5, TCP: true, Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetAvailable(0, false)
	ans, err := f.M.QueryPartial(`select x.name from x in person`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Complete {
		t.Error("expected partial answer with one source down")
	}
	f.AllAvailable()
	ans, err = f.M.QueryPartial(`select x.name from x in person`)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Complete {
		t.Error("expected complete answer after recovery")
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := NewPersonFleet(FleetConfig{Sources: 0}); err == nil {
		t.Error("zero sources should fail")
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "long_column"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tb.String()
	for _, frag := range []string{"== T: demo ==", "long_column", "333", "note: a note"} {
		if !strings.Contains(s, frag) {
			t.Errorf("table output missing %q:\n%s", frag, s)
		}
	}
}

// Smoke tests: every experiment runs at reduced size and produces rows.

func TestF1Smoke(t *testing.T) {
	tb, err := F1Architecture()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestF2Smoke(t *testing.T) {
	tb, err := F2Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
	if !strings.Contains(strings.Join(tb.Notes, " "), "cache hit: true") {
		t.Errorf("warm run should hit the plan cache: %v", tb.Notes)
	}
}

func TestE1Smoke(t *testing.T) {
	tb, err := E1Availability([]int{1, 4}, 0.7, 3, 120*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
	// The data fraction is measured from the answers' rows, so it must be
	// a fraction, and the two extremes pin it: every source up returns all
	// the data in full answers, every source down returns none.
	for _, row := range tb.Rows {
		if f, err := strconv.ParseFloat(row[4], 64); err != nil || f < 0 || f > 1 {
			t.Errorf("data fraction %q outside [0, 1]: %v", row[4], row)
		}
	}
	up, err := E1Availability([]int{3}, 1, 2, 120*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if row := up.Rows[0]; row[2] != "2/2" || row[4] != "1.00" {
		t.Errorf("p = 1: full answers %s, data fraction %s; want 2/2 and 1.00", row[2], row[4])
	}
	down, err := E1Availability([]int{3}, 0, 2, 120*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if row := down.Rows[0]; row[4] != "0.00" {
		t.Errorf("p = 0: data fraction %s, want 0.00", row[4])
	}
}

func TestE2Smoke(t *testing.T) {
	tb, err := E2Partial()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Errorf("rows = %d\n%s", len(tb.Rows), tb)
	}
}

func TestE3Smoke(t *testing.T) {
	tb, err := E3Pushdown(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The shape that must hold: bytes shrink as capability grows.
	if !strings.Contains(tb.Rows[0][1], "100%") {
		t.Errorf("baseline should be 100%%: %v", tb.Rows[0])
	}
}

func TestE4Smoke(t *testing.T) {
	tb, err := E4CostLearning()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][1] != "default" {
		t.Errorf("first estimate should be default-based: %v", tb.Rows[0])
	}
	if tb.Rows[1][1] != "exact" {
		t.Errorf("post-observation estimate should be exact-based: %v", tb.Rows[1])
	}
	if !strings.Contains(strings.Join(tb.Notes, " "), "pushes maximally under it: true") {
		t.Errorf("default-cost pushdown note wrong: %v", tb.Notes)
	}
}

func TestE5Smoke(t *testing.T) {
	tb, err := E5Scaling([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Submits grow with sources.
	if tb.Rows[0][4] != "1" || tb.Rows[2][4] != "4" {
		t.Errorf("plan submits should equal source count: %v", tb.Rows)
	}
}

func TestE6Smoke(t *testing.T) {
	tb, err := E6Modeling()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Errorf("rows = %d\n%s", len(tb.Rows), tb)
	}
}

func TestE7Smoke(t *testing.T) {
	tb, err := E7WideArea(100, []time.Duration{0, 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if !strings.HasSuffix(tb.Rows[0][3], "x") {
		t.Errorf("speedup column malformed: %v", tb.Rows[0])
	}
}
