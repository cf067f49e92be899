package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"prefetchlab/internal/pipeline"
)

func TestFig7MixStudyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("mix study is slow")
	}
	s := sharedSession()
	r, err := s.Fig7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Studies) != 2 {
		t.Fatalf("studies = %d", len(r.Studies))
	}
	for _, st := range r.Studies {
		if len(st.Comparisons) != s.O.Mixes {
			t.Fatalf("%s: %d comparisons", st.Machine, len(st.Comparisons))
		}
		// The headline resource claim: software prefetching moves less data
		// than hardware prefetching on average.
		swT := st.TrafficDist(pipeline.SWPrefNT).Mean()
		hwT := st.TrafficDist(pipeline.HWPref).Mean()
		if swT >= hwT {
			t.Errorf("%s: SW+NT traffic %+.2f not below HW %+.2f", st.Machine, swT, hwT)
		}
	}
	var buf bytes.Buffer
	s.O.Out = &buf
	r.Print(s)
	if !strings.Contains(buf.String(), "Weighted speedup") {
		t.Error("missing curve output")
	}
	// Fig10/Fig11 reuse the same studies (cached) — exercise them too.
	f10, err := s.Fig10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Labels) != 4 {
		t.Fatalf("fig10 groups = %d", len(f10.Labels))
	}
	for i := range f10.Labels {
		if f10.SWNT[i] <= 0 || f10.HW[i] <= 0 {
			t.Fatalf("non-positive fair speedup at %s", f10.Labels[i])
		}
	}
	f11, err := s.Fig11(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range f11.Labels {
		if f11.SWNT[i] > 0 || f11.HW[i] > 0 {
			t.Fatalf("QoS must be ≤ 0, got %g/%g", f11.SWNT[i], f11.HW[i])
		}
	}
}

func TestFig8DetailMix(t *testing.T) {
	if testing.Short() {
		t.Skip("mix run is slow")
	}
	s := sharedSession()
	r, err := s.Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 4 || len(r.SWNT) != 4 || len(r.HW) != 4 {
		t.Fatalf("result = %+v", r)
	}
	if r.SWNTBandwidth <= 0 || r.HWBandwidth <= 0 {
		t.Fatal("missing bandwidth")
	}
	var buf bytes.Buffer
	s.O.Out = &buf
	r.Print(s)
	if !strings.Contains(buf.String(), "cigar") {
		t.Error("missing app rows")
	}
}

func TestFig12Parallel(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel study is slow")
	}
	s := sharedSession()
	r, err := s.Fig12(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row.SWNT) != 3 || len(row.HW) != 3 {
			t.Fatalf("%s: thread counts missing", row.Name)
		}
		// More threads must not be slower than one thread under the same
		// policy (strong scaling of independent chunks).
		if row.SWNT[2] < row.SWNT[0] || row.HW[2] < row.HW[0] {
			t.Errorf("%s: 4 threads slower than 1 (%v / %v)", row.Name, row.SWNT, row.HW)
		}
	}
	var buf bytes.Buffer
	s.O.Out = &buf
	r.Print(s)
	if !strings.Contains(buf.String(), "swim*") {
		t.Error("high-bandwidth marker missing")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs are slow")
	}
	s := testSession("libquantum")
	rc, err := s.AblationCombined(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Rows) != 2 { // one per machine
		t.Fatalf("combined rows = %d", len(rc.Rows))
	}
	rl, err := s.AblationL2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rl.Rows) != 3 {
		t.Fatalf("l2 rows = %d", len(rl.Rows))
	}
	var buf bytes.Buffer
	s.O.Out = &buf
	rc.Print(s)
	rl.Print(s)
	if !strings.Contains(buf.String(), "L2 only") {
		t.Error("missing ablation output")
	}
}
