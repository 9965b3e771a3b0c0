package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sldf/internal/metrics"
)

// The test executor computes a deterministic point from its payload; tests
// across this package and the remote subpackage share it via TestSpecs.
const testExecKind = "campaign-test/linear@v1"

type testPayload struct {
	Base float64 `json:"base"`
	Rate float64 `json:"rate"`
}

func init() {
	RegisterExecutor(testExecKind, func(w *Worker, payload json.RawMessage) (metrics.Point, error) {
		var p testPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			return metrics.Point{}, err
		}
		if p.Rate < 0 {
			return metrics.Point{}, fmt.Errorf("negative rate %g", p.Rate)
		}
		return metrics.Point{
			Rate:       p.Rate,
			Latency:    p.Base + 10*p.Rate,
			Throughput: p.Rate * 0.9,
		}, nil
	})
}

// testSpecs builds n deterministic specs for the test executor.
func testSpecs(t *testing.T, n int) []JobSpec {
	t.Helper()
	specs := make([]JobSpec, n)
	for i := range specs {
		payload, err := json.Marshal(testPayload{Base: 5, Rate: float64(i) / 10})
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = JobSpec{
			Key:     fmt.Sprintf("test-linear-%d", i),
			Kind:    testExecKind,
			Payload: payload,
		}
	}
	return specs
}

func TestLocalBackendMatchesSerialRun(t *testing.T) {
	specs := testSpecs(t, 17)
	serial, err := LocalBackend{}.Execute(specs, ExecOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8, 64} {
		got, err := LocalBackend{}.Execute(specs, ExecOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("jobs=%d diverged from serial", jobs)
		}
	}
}

func TestLocalBackendUsesStore(t *testing.T) {
	store := NewMemoryLRU[metrics.Point](32)
	specs := testSpecs(t, 5)
	cold, err := LocalBackend{}.Execute(specs, ExecOptions{Jobs: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 5 {
		t.Fatalf("store has %d entries, want 5", store.Len())
	}
	warm, err := LocalBackend{}.Execute(specs, ExecOptions{Jobs: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("store replay diverged")
	}
	if store.Hits() != 5 {
		t.Fatalf("store hits=%d, want 5", store.Hits())
	}
}

func TestExecuteSpecUnknownKind(t *testing.T) {
	_, err := LocalBackend{}.Execute([]JobSpec{{Kind: "nope/unregistered@v0"}}, ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), `no executor registered for job kind "nope/unregistered@v0"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestExecutorKindsListed(t *testing.T) {
	kinds := ExecutorKinds()
	found := false
	for _, k := range kinds {
		if k == testExecKind {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered kind missing from %v", kinds)
	}
}

func TestRegisterExecutorDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterExecutor(testExecKind, nil)
}

// TestLocalBackendPropagatesJobError fails jobs 2 and 5 of 8: whatever the
// pool size, no job below a failure is skipped, so the error is job 2's.
func TestLocalBackendPropagatesJobError(t *testing.T) {
	specs := testSpecs(t, 8)
	for _, i := range []int{2, 5} {
		payload, _ := json.Marshal(testPayload{Rate: -float64(i)})
		specs[i] = JobSpec{Kind: testExecKind, Payload: payload}
	}
	for _, jobs := range []int{1, 2, 8} {
		_, err := LocalBackend{}.Execute(specs, ExecOptions{Jobs: jobs})
		var je *JobError
		if !errors.As(err, &je) || je.Index != 2 || !strings.Contains(err.Error(), "negative rate -2") {
			t.Fatalf("jobs=%d: err = %v, want a *JobError for job 2", jobs, err)
		}
	}
}
