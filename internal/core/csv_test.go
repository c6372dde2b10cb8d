package core

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// relFromRows builds a RelStore with an (id, name, salary) table.
func relFromRows(t *testing.T, table string, rows [][3]interface{}) *source.RelStore {
	t.Helper()
	s := source.NewRelStore()
	if err := s.CreateTable(table, "id", "name", "salary"); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := s.Insert(table,
			types.Int(int64(r[0].(int))), types.Str(r[1].(string)), types.Int(int64(r[2].(int)))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestCSVWrapperViaODL: a CSV file joins the federation through the csv
// wrapper kind, with filtering executed inside the wrapper.
func TestCSVWrapperViaODL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lab.csv")
	csv := "sample,ph,lead\nS1,7.2,11\nS2,6.1,48\nS3,6.9,3\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}

	m := New(WithTimeout(300 * time.Millisecond))
	if err := m.ExecODL(`
		rlab := Repository(address="file:lab");
		wcsv := Wrapper("csv", path="` + path + `", collection="lab");
		interface Sample (extent samples) {
		    attribute String sample;
		    attribute Float ph;
		    attribute Short lead;
		}
		extent lab of Sample wrapper wcsv repository rlab;
	`); err != nil {
		t.Fatal(err)
	}

	got := m.MustQuery(`select s.sample from s in lab where s.lead > 10`)
	want := types.NewBag(types.Str("S1"), types.Str("S2"))
	if !got.Equal(want) {
		t.Errorf("csv query = %s, want %s", got, want)
	}

	// The CSV wrapper advertises select support, so the predicate pushes
	// into the wrapper (which runs it over the loaded file).
	explain, err := m.Explain(`select s.sample from s in lab where s.lead > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "submit(rlab, project([sample], select(lead > 10, get(lab))))") {
		t.Errorf("csv wrapper should accept pushdown:\n%s", explain)
	}

	// Mixed federation: CSV data joins relational data.
	rel := relFromRows(t, "person0", [][3]interface{}{{1, "S1", 10}})
	m.RegisterEngine("r0", rel)
	if err := m.ExecODL(`
		r0 := Repository(address="mem:r0");
		w0 := WrapperPostgres();
		interface Person (extent person) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent person0 of Person wrapper w0 repository r0;
	`); err != nil {
		t.Fatal(err)
	}
	joined := m.MustQuery(`select struct(who: p.name, ph: s.ph)
		from p in person0, s in lab where p.name = s.sample`)
	if joined.(*types.Bag).Len() != 1 {
		t.Errorf("cross-engine join = %s", joined)
	}
}

func TestCSVWrapperMissingProps(t *testing.T) {
	m := New()
	if err := m.ExecODL(`
		rlab := Repository(address="file:x");
		wcsv := Wrapper("csv");
		interface T (extent ts) { attribute String a; }
		extent data of T wrapper wcsv repository rlab;
	`); err != nil {
		t.Fatal(err) // declaration is fine; instantiation fails at first use
	}
	if _, err := m.Query(`select t from t in data`); err == nil ||
		!strings.Contains(err.Error(), "path and collection") {
		t.Errorf("err = %v", err)
	}
}

// TestWrapperInstanceConcurrentFirstUse: concurrent first submits to one
// wrapper@repository all get the same instance — the one that reached the
// map first — instead of each keeping its own parse of the file and the
// last overwriting the rest. Run under -race.
func TestWrapperInstanceConcurrentFirstUse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lab.csv")
	if err := os.WriteFile(path, []byte("sample,ph\nS1,7.2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := New()
	if err := m.ExecODL(`
		rlab := Repository(address="file:lab");
		wcsv := Wrapper("csv", path="` + path + `", collection="lab");
	`); err != nil {
		t.Fatal(err)
	}
	const callers = 16
	got := make([]wrapper.Wrapper, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w, err := m.wrapperInstance("wcsv", "rlab")
			if err != nil {
				t.Error(err)
			}
			got[i] = w
		}()
	}
	close(start)
	wg.Wait()
	for i, w := range got {
		if w != got[0] {
			t.Fatalf("caller %d got a different wrapper instance than caller 0", i)
		}
	}
}
