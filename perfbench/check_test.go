package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/ps"
)

func TestCheckerSelfTest(t *testing.T) {
	if err := checkerSelfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerCatchesFlippedOutput runs every corpus module, confirms
// its output matches the hand-written reference, then flips one element
// of the output and confirms the checker rejects it.
func TestCheckerCatchesFlippedOutput(t *testing.T) {
	eng := ps.NewEngine()
	defer eng.Close()
	jobs, err := corpusJobs(eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range jobs {
		for _, j := range js {
			got, _, err := j.runner.Run(nil, j.args)
			if err != nil {
				t.Fatalf("%s: %v", j.key, err)
			}
			if !sameResults(j.ref, got) {
				t.Fatalf("%s: output differs from the reference", j.key)
			}
			a := got[0].(*ps.Array)
			idx := make([]int64, len(a.Axes))
			for d, ax := range a.Axes {
				idx[d] = (ax.Lo + ax.Hi) / 2
			}
			a.SetF(idx, math.Nextafter(a.GetF(idx), math.Inf(1)))
			if sameResults(j.ref, got) {
				t.Fatalf("%s: flipped element not caught", j.key)
			}
		}
	}
}

// TestServeReferences checks that each corpus job's reference JSON,
// which the serve probe byte-compares with psserve's results, is what
// ps.ResultsToJSON of the interpreter's output encodes to.
func TestServeReferences(t *testing.T) {
	eng := ps.NewEngine()
	defer eng.Close()
	jobs, err := corpusJobs(eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range jobs {
		j := js[0]
		got, _, err := j.runner.Run(nil, j.args)
		if err != nil {
			t.Fatalf("%s: %v", j.key, err)
		}
		m, err := ps.ResultsToJSON(j.prog, j.module, got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, j.refJSON) {
			t.Fatalf("%s: encoded output differs from the reference JSON", j.key)
		}
	}
}

func TestChurnReferences(t *testing.T) {
	jobs, err := churnJobs(1, 24)
	if err != nil {
		t.Fatal(err)
	}
	st := &churnState{eng: ps.NewEngine(ps.WithCacheLimit(churnCacheLimit)), jobs: jobs}
	defer st.close()
	for i, j := range jobs {
		got, err := st.op(j, i)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !sameResults(j.ref, got) {
			t.Fatalf("op %d: output differs from the strict sequential reference", i)
		}
	}
	if es := st.eng.Stats(); es.CacheHits != 0 {
		t.Fatalf("churn ops hit the cache %d times; every op must compile", es.CacheHits)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("q1 = %v, want 2", q)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with
// the metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
