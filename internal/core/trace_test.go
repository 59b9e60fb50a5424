package core

import "testing"

func TestSessionTrace(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	var records []TraceRecord
	s.Trace = func(r TraceRecord) { records = append(records, r) }
	mustRun(t, s, NewL2QBAL(), 3)
	if len(records) != 3 {
		t.Fatalf("trace records = %d", len(records))
	}
	for i, r := range records {
		if r.Iteration != i+1 {
			t.Errorf("record %d iteration = %d", i, r.Iteration)
		}
		if r.Query == "" || r.TotalPages == 0 {
			t.Errorf("record %d incomplete: %+v", i, r)
		}
		if r.RPhi < 0 || r.RPhi > 1 || r.RStarPhi < 0 || r.RStarPhi > 1 {
			t.Errorf("record %d context out of range: %+v", i, r)
		}
	}
	// Total pages must be non-decreasing.
	for i := 1; i < len(records); i++ {
		if records[i].TotalPages < records[i-1].TotalPages {
			t.Fatal("TotalPages decreased")
		}
	}
}
