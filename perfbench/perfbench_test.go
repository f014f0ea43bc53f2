package main

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, want)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestAvionicsDenseOracle runs every system on avionics fleets with
// the default fast-forward and with Trial.Dense and requires identical
// results. The horizon is cut to a twentieth of the 4,000,000-slot
// hyper-period, which keeps the dense reruns short.
func TestAvionicsDenseOracle(t *testing.T) {
	w := avionicsWorkload()
	groups, err := w.generate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups[:2] {
		g.horizon /= 20
		var p problems
		w.checkDense(g, &p)
		for _, msg := range p {
			t.Error(msg)
		}
	}
}

// TestServerWorkloadStops runs the server workload briefly, traced so
// that both clients record spans at once, and checks that it leaves
// nothing behind: the listener refuses connections and the batcher and
// the job store hold no queued or in-flight work.
func TestServerWorkloadStops(t *testing.T) {
	tr := newTracer()
	run, err := loadServer(1, time.Second, tr)
	if err != nil {
		t.Fatal(err)
	}
	if run.stopError != nil {
		t.Fatal(run.stopError)
	}
	var ops int64
	for _, c := range run.logs {
		ops += c.attempted
		if c.failed > 0 {
			t.Errorf("client failed %d operations: %v", c.failed, c.errs)
		}
	}
	if ops == 0 || ops%serverRound != 0 {
		t.Errorf("clients attempted %d operations, want whole rounds of %d", ops, serverRound)
	}
	if conn, err := net.DialTimeout("tcp", run.addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("%s still accepts connections", run.addr)
	}
	if st := run.srv.Batcher().Stats(); st.Queued != 0 || st.ExecutedTrials != st.AcceptedTrials || st.AcceptedTrials == 0 {
		t.Errorf("batcher after stop: %+v", st)
	}
	if st := run.srv.Jobs().Stats(); st.Queued != 0 || st.Finished != st.Accepted || st.Accepted == 0 {
		t.Errorf("job store after stop: %+v", st)
	}
	self := tr.selfTimes()
	if self["server.request"].calls == 0 || self["server.sweep"].calls == 0 {
		t.Errorf("traced run recorded no request or sweep spans: %v", self)
	}
}

// TestSelfTime checks that a span's self time excludes the union of
// its children, overlapping ones counted once.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 30, End: 50, Parent: 0},
		{Name: "child", Start: 70, End: 80, Parent: 0},
	}}
	self := tr.selfTimes()
	if got := self["parent"].self; got != 50 {
		t.Errorf("parent self time %d ns, want 50", got)
	}
	if got := self["child"]; got.calls != 3 || got.self != 60 {
		t.Errorf("child self time %+v, want 3 calls, 60 ns", got)
	}
}
