// Package profiling wires pprof capture into commands. A command registers
// the standard -cpuprofile/-memprofile flags on its flag set before parsing
// and brackets its work between Start and Stop:
//
//	prof := profiling.Flags(fs)
//	fs.Parse(args)
//	if err := prof.Start(); err != nil { ... }
//	defer prof.Stop()
//
// Both flags default to off and cost nothing unless set.
package profiling

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
)

// labelsOn tracks whether a CPU profile is being captured; phase labels are
// free (one atomic load) while it is off, so hot solver loops can tag their
// phases unconditionally without paying pprof costs in ordinary runs.
var labelsOn atomic.Bool

// Phase is a prebuilt pprof label set naming one phase of a computation.
// Build them once (package var), then bracket work with Enter/Exit; CPU
// profiles captured with -cpuprofile break the samples down by the "phase"
// label. The flow solver tags its trace / waterfill / histogram phases.
type Phase struct {
	ctx context.Context
}

// NewPhase prebuilds the label set for a named phase.
func NewPhase(name string) Phase {
	return Phase{ctx: pprof.WithLabels(context.Background(), pprof.Labels("phase", name))}
}

// Enter tags the calling goroutine with the phase label. No-op (and
// allocation-free) unless a CPU profile is active.
func (p Phase) Enter() {
	if labelsOn.Load() {
		pprof.SetGoroutineLabels(p.ctx)
	}
}

// ExitPhase clears the calling goroutine's phase label.
func ExitPhase() {
	if labelsOn.Load() {
		pprof.SetGoroutineLabels(context.Background())
	}
}

// Profiles holds the flag values and the open CPU-profile file, if any.
type Profiles struct {
	cpu *string
	mem *string
	f   *os.File
}

// Flags registers -cpuprofile and -memprofile on fs.
func Flags(fs *flag.FlagSet) *Profiles {
	return &Profiles{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling when -cpuprofile was given. Call after the
// flags are parsed.
func (p *Profiles) Start() error {
	if *p.cpu == "" {
		return nil
	}
	f, err := os.Create(*p.cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	labelsOn.Store(true)
	p.f = f
	return nil
}

// Stop finishes the CPU profile and, when -memprofile was given, collects
// garbage and writes the live-heap profile. Safe to call when neither flag
// was set.
func (p *Profiles) Stop() error {
	if p.f != nil {
		labelsOn.Store(false)
		pprof.StopCPUProfile()
		if err := p.f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		p.f = nil
	}
	if *p.mem == "" {
		return nil
	}
	f, err := os.Create(*p.mem)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC() // profile live objects, not garbage
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
