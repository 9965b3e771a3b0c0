package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunHelp(t *testing.T) {
	var errOut strings.Builder
	if err := run([]string{"-h"}, &errOut, nil); err != nil {
		t.Fatalf("-h must succeed, got %v", err)
	}
	if !strings.Contains(errOut.String(), "Usage of sldfd") {
		t.Errorf("-h did not print usage:\n%s", errOut.String())
	}
}

// TestRunFlagErrors checks that bad flags fail before anything is served;
// when flag is set, the error must name it.
func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{args: []string{"-no-such-flag"}},
		{args: []string{"-jobs", "x"}},
		{args: []string{"stray-positional"}},
		{args: []string{"-listen", "127.0.0.1:0", "-jobs", "0"}, flag: "-jobs"},
		{args: []string{"-listen", "127.0.0.1:0", "-jobs", "-4"}, flag: "-jobs"},
	} {
		err := run(tc.args, io.Discard, nil)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", tc.args)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run(%v): error %q does not name %s", tc.args, err, tc.flag)
		}
	}
}

func TestDaemonServesAndShutsDown(t *testing.T) {
	var (
		mu   sync.Mutex
		addr string
		stop func()
	)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-jobs", "2", "-mem", "16"},
			io.Discard, func(a string, s context.CancelFunc) {
				mu.Lock()
				addr, stop = a, s
				mu.Unlock()
			})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		a := addr
		mu.Unlock()
		if a != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	base := "http://" + addr
	mu.Unlock()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		OK      bool     `json:"ok"`
		Workers int      `json:"workers"`
		Kinds   []string `json:"kinds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !h.OK || h.Workers != 2 {
		t.Fatalf("healthz = %+v", h)
	}
	// The daemon must advertise the core point executor: that is what a
	// coordinator will ship it.
	found := false
	for _, k := range h.Kinds {
		if k == "core/point@v1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("core point executor not registered: %v", h.Kinds)
	}

	mu.Lock()
	stop()
	mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
