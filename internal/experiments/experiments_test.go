package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/globalsched"
	"nexus/internal/model"
)

func TestRegistry(t *testing.T) {
	all := List()
	if len(all) != 23 {
		t.Fatalf("registry has %d experiments, want 23", len(all))
	}
	// Sorted by ID.
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("List not sorted")
		}
	}
	for _, e := range all {
		if e.Description == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if e, err := Get("table1"); err != nil || e.ID != "table1" {
		t.Fatalf("Get(table1) = %+v, %v", e, err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.Notes = append(tab.Notes, "hello")
	out := tab.String()
	for _, want := range []string{"== x: demo ==", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if got := tab.Cell("333", "bb"); got != "4" {
		t.Fatalf("Cell = %q, want 4", got)
	}
	if tab.Cell("zz", "bb") != "" || tab.Cell("1", "zz") != "" {
		t.Fatal("missing cells should be empty")
	}
}

func mustRun(t *testing.T, id string) *Table {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(NewRunContext(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return tab
}

func cellFloat(t *testing.T, tab *Table, row, col string) float64 {
	t.Helper()
	raw := tab.Cell(row, col)
	raw = strings.TrimSuffix(strings.TrimSuffix(raw, "x"), "%")
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("cell (%s,%s) = %q not numeric: %v", row, col, tab.Cell(row, col), err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := mustRun(t, "table1")
	// Table 1's claim: accelerators are dramatically cheaper per invocation.
	cpu := cellFloat(t, tab, "resnet50", "CPU cost ($)")
	gpu := cellFloat(t, tab, "resnet50", "GPU cost ($)")
	if cpu < 10*gpu {
		t.Fatalf("CPU cost %.4f not >> GPU cost %.4f", cpu, gpu)
	}
}

func TestTable2Shape(t *testing.T) {
	tab := mustRun(t, "table2")
	if got := tab.Cell("residual", "GPUs"); got != "2" {
		t.Fatalf("residual scenario used %s GPUs, want 2", got)
	}
	if got := tab.Cell("saturate", "GPUs"); got != "6" {
		t.Fatalf("saturate scenario used %s GPUs, want 6", got)
	}
	assignment := tab.Cell("residual", "Assignment")
	if !strings.Contains(assignment, "A@b8") || !strings.Contains(assignment, "B@b4") {
		t.Fatalf("residual assignment %q should colocate A@b8 with B@b4", assignment)
	}
}

func TestFigure4ExactPaperNumbers(t *testing.T) {
	tab := mustRun(t, "fig4")
	want := map[string][3]string{
		"40,60": {"192.3", "142.9", "40.0"},
		"50,50": {"235.3", "153.8", "34.5"},
		"60,40": {"272.7", "150.0", "27.3"},
	}
	cols := []string{"gamma=0.1", "gamma=1", "gamma=10"}
	for row, vals := range want {
		for i, col := range cols {
			if got := tab.Cell(row, col); got != vals[i] {
				t.Errorf("split %s %s = %s, want %s", row, col, got, vals[i])
			}
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	tab := mustRun(t, "fig5")
	// Uniform arrivals: near-zero bad rate at every alpha. Poisson: high
	// at small alpha, lower at large alpha (fixed cost amortization).
	firstPoisson := cellFloat(t, tab, "1.0", "poisson bad %")
	lastPoisson := cellFloat(t, tab, "1.8", "poisson bad %")
	if firstPoisson < 10 {
		t.Errorf("poisson bad at alpha=1.0 is %.1f%%, expected substantial", firstPoisson)
	}
	if lastPoisson >= firstPoisson {
		t.Errorf("poisson bad should fall with alpha: %.1f -> %.1f", firstPoisson, lastPoisson)
	}
	for _, alpha := range []string{"1.0", "1.4", "1.8"} {
		if u := cellFloat(t, tab, alpha, "uniform bad %"); u > 2 {
			t.Errorf("uniform bad at alpha=%s is %.1f%%, expected near zero", alpha, u)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	tab := mustRun(t, "fig9")
	for _, alpha := range []string{"1.0", "1.4", "1.8"} {
		lazy := cellFloat(t, tab, alpha, "lazy (req/s)")
		early := cellFloat(t, tab, alpha, "early (req/s)")
		if early < lazy {
			t.Errorf("alpha=%s: early %v < lazy %v", alpha, early, lazy)
		}
		if early > 505 {
			t.Errorf("alpha=%s: early %v above the 500 r/s optimum", alpha, early)
		}
	}
	// The gain shrinks as alpha grows (fixed cost matters less).
	gainLow := cellFloat(t, tab, "1.0", "early gain %")
	gainHigh := cellFloat(t, tab, "1.8", "early gain %")
	if gainLow <= gainHigh {
		t.Errorf("early-drop gain should shrink with alpha: %v -> %v", gainLow, gainHigh)
	}
}

func TestFigure15Shape(t *testing.T) {
	tab := mustRun(t, "fig15")
	// Prefix batching's advantage grows with the number of variants.
	gain2 := cellFloat(t, tab, "2", "gain")
	gain10 := cellFloat(t, tab, "10", "gain")
	if gain2 < 1 {
		t.Errorf("gain at 2 variants %.2f < 1", gain2)
	}
	if gain10 <= gain2 {
		t.Errorf("gain should grow with variants: %.2f -> %.2f", gain2, gain10)
	}
}

func TestPointsFromKnotsInterpolation(t *testing.T) {
	pts := PointsFromKnots(40*time.Millisecond,
		map[int]time.Duration{4: 50 * time.Millisecond, 8: 90 * time.Millisecond}, 8)
	if pts[3] != 50*time.Millisecond || pts[7] != 90*time.Millisecond {
		t.Fatalf("knots not honoured: %v", pts)
	}
	if pts[5] != 70*time.Millisecond { // midpoint of 50..90 over 4..8
		t.Fatalf("interpolation at b=6 = %v, want 70ms", pts[5])
	}
	// b=1..3 interpolate from the (0, 40ms) anchor.
	if pts[0] != 42500*time.Microsecond {
		t.Fatalf("b=1 = %v, want 42.5ms", pts[0])
	}
}

func TestTable2ProfilesValid(t *testing.T) {
	profiles, err := Table2Profiles()
	if err != nil {
		t.Fatal(err)
	}
	// Table 2's stated throughputs: A@16 = 160 r/s, B@16 = C@16 = 128 r/s.
	if got := profiles["A"].Throughput(16); got < 159 || got > 161 {
		t.Errorf("A@16 throughput %.1f, want 160", got)
	}
	if got := profiles["B"].Throughput(16); got < 127 || got > 129 {
		t.Errorf("B@16 throughput %.1f, want 128", got)
	}
}

// TestSection74ShortRun exercises the §7.4 efficiency experiment.
func TestSection74ShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tab := mustRun(t, "sec7.4")
	eff := cellFloat(t, tab, "efficiency", "Value")
	if eff < 50 || eff > 101 {
		t.Fatalf("efficiency %.0f%% implausible", eff)
	}
	bad := cellFloat(t, tab, "bad rate", "Value")
	if bad > 1 {
		t.Fatalf("bad rate %.2f%% above target", bad)
	}
}

// TestFigure13ShortRun exercises the deployment-window experiment.
func TestFigure13ShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tab := mustRun(t, "fig13")
	bad := cellFloat(t, tab, "overall", "bad %")
	if bad > 2 {
		t.Fatalf("overall bad %.2f%%, want well under 2%%", bad)
	}
}

// TestSearchBuildErrorFailsExperiment: a searched cell whose install fails
// (here, a session of an unknown model) fails its experiment instead of
// printing goodput 0, while a probe whose pool cannot host the plan is
// only a failed probe.
func TestSearchBuildErrorFailsExperiment(t *testing.T) {
	nexus := systemCell{"Nexus", cluster.Nexus, cluster.AllFeatures()}
	session := func(modelID string) func(*cluster.Deployment, float64) error {
		return func(d *cluster.Deployment, rate float64) error {
			return d.AddSession(globalsched.SessionSpec{
				ID: "s", ModelID: modelID, SLO: 100 * time.Millisecond, ExpectedRate: rate,
			}, nil)
		}
	}
	exp := func(modelID string) Experiment {
		return Experiment{ID: "search", Run: func(rc *RunContext) (*Table, error) {
			tputs, err := runCells("search", 2, func(int) (float64, error) {
				return searchGoodput(rc, 10, 100000, nexus, 1, 1, session(modelID))
			})
			if err != nil {
				return nil, err
			}
			t := &Table{ID: "search", Header: []string{"cell", "req/s"}}
			t.AddRow("s", fmt.Sprintf("%.0f", tputs[0]))
			return t, nil
		}}
	}
	if tab, err := exp("no-such-model").Run(NewRunContext(true)); err == nil {
		t.Fatalf("a cell of an unknown model ran without error:\n%s", tab)
	}
	// 100k r/s of ResNet-50 does not fit one GPU, so the hi probe's Run
	// fails; the search still brackets the capacity.
	rc := NewRunContext(true)
	tab, err := exp(model.ResNet50).Run(rc)
	if err != nil {
		t.Fatalf("an unservable probe failed the experiment: %v", err)
	}
	if got := cellFloat(t, tab, "s", "req/s"); got <= 10 || got >= 100000 {
		t.Fatalf("searched goodput %v, want inside the bracket", got)
	}
	if rc.Events() == 0 {
		t.Fatal("the search counted no simulation events")
	}
}
