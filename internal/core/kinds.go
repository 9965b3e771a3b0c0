package core

import (
	"fmt"
	"slices"
	"strings"

	"sldf/internal/collective"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// kindEntry is everything the package knows about one system kind. Build,
// Config.Label, SystemKind.String, ParseKind and the collective and ring
// embeddings all read it, so adding a topology means adding one entry to
// kinds.
type kindEntry struct {
	// name is the kind's canonical name (String, Label, CLIs); aliases are
	// further names ParseKind accepts.
	name    string
	aliases []string
	// vcs is the per-link virtual-channel count of a build.
	vcs func(c Config, faulted bool) uint8
	// build constructs the topology over the given link classes.
	build func(c Config, classes topology.LinkClasses, opts netsim.NetworkOptions) (kindTopo, error)
	// labelSuffix, when non-nil, appends the routing and bandwidth variant
	// to name in Config.Label.
	labelSuffix func(Config) string
	// nodesPerChip is the pristine per-chip injector count; groups is the
	// W-group count.
	nodesPerChip func(Config) int
	groups       func(Config) int
	// subGroup is the hierarchical collective's group size on a system
	// with a single W-group.
	subGroup func(c Config, chips int) int
	// order, when non-nil, is the natural ring embedding over the chips;
	// nil keeps ascending chip IDs.
	order func(Config) []int32
}

// sanitizeFunc is the keep-predicate netsim.SanitizeInFlight takes.
type sanitizeFunc = func(*netsim.Router, *netsim.Packet) bool

// kindTopo is one built topology as Build consumes it.
type kindTopo struct {
	net *netsim.Network
	// domain returns the samplable fault set of the network's current
	// state; closure, when non-nil, is the fault-closure hook (see
	// applyFaultSpec).
	domain  func() topology.FaultDomain
	closure func([]netsim.NodeID, []int32) []netsim.NodeID
	// install sets the pristine routing.
	install func() error
	// faultRoute builds fault-aware routing from the network's current
	// Disabled state (a netsim.FaultRouteBuilder). sanitize is nil when a
	// mid-run swap to the new tables leaves no in-flight packet to retire.
	faultRoute func() (route netsim.RouteFunc, sanitize sanitizeFunc, err error)
}

// kinds is the system-kind table, indexed by SystemKind.
var kinds = [...]kindEntry{
	SwitchDragonfly: {
		name: "sw-based",
		vcs: func(c Config, faulted bool) uint8 {
			if faulted {
				return FaultVCs
			}
			return routing.DragonflyVCCount(c.Mode)
		},
		build: func(c Config, classes topology.LinkClasses, opts netsim.NetworkOptions) (kindTopo, error) {
			df, err := topology.BuildDragonfly(c.DF, classes, opts)
			if err != nil {
				return kindTopo{}, err
			}
			return kindTopo{
				net:    df.Net,
				domain: df.FaultDomain,
				install: func() error {
					route, err := routing.DragonflyRoute(df, c.Mode)
					if err != nil {
						return err
					}
					df.Net.SetRoute(route)
					return nil
				},
				faultRoute: func() (netsim.RouteFunc, sanitizeFunc, error) {
					fd, err := routing.NewFaultDragonflyRoute(df, c.Mode)
					if err != nil {
						return nil, nil, err
					}
					return fd.Func(), fd.Sanitize(), nil
				},
			}, nil
		},
		labelSuffix: func(c Config) string {
			if c.Mode == routing.Valiant {
				return "-mis"
			}
			return ""
		},
		nodesPerChip: oneNIC,
		groups:       func(c Config) int { return c.DF.Groups() },
		subGroup:     func(c Config, _ int) int { return c.DF.P }, // one switch
	},
	SwitchlessDragonfly: {
		name: "sw-less",
		vcs: func(c Config, faulted bool) uint8 {
			if faulted {
				return FaultVCs
			}
			return routing.SLDFVCCount(sldfScheme(c), c.Mode)
		},
		build: func(c Config, classes topology.LinkClasses, opts netsim.NetworkOptions) (kindTopo, error) {
			params, scheme := c.SLDF, sldfScheme(c)
			if scheme == routing.ReducedVC {
				params.Layout = topology.LayoutSouthNorth
			}
			s, err := topology.BuildSLDF(params, classes, opts)
			if err != nil {
				return kindTopo{}, err
			}
			return kindTopo{
				net:     s.Net,
				domain:  s.FaultDomain,
				closure: s.FaultClosure,
				install: func() error {
					sr, err := routing.NewSLDFRouter(s, scheme, c.Mode)
					if err != nil {
						return err
					}
					sr.Install(s.Net)
					return nil
				},
				faultRoute: func() (netsim.RouteFunc, sanitizeFunc, error) {
					fr, err := routing.NewFaultSLDFRouter(s, scheme, c.Mode)
					if err != nil {
						return nil, nil, err
					}
					return fr.Func(), fr.Sanitize(), nil
				},
			}, nil
		},
		labelSuffix: func(c Config) string {
			label := ""
			if c.IntraWidth > 1 {
				label += fmt.Sprintf("-%dB", c.IntraWidth)
			}
			switch c.Mode {
			case routing.Valiant:
				label += "-mis"
			case routing.ValiantLower:
				label += "-mis-lower"
			case routing.Adaptive:
				label += "-ugal"
			}
			if sldfScheme(c) == routing.ReducedVC {
				label += "-rvc"
			}
			return label
		},
		nodesPerChip: func(c Config) int { return c.SLDF.NoCDim * c.SLDF.NoCDim },
		groups:       func(c Config) int { return c.SLDF.Groups() },
		subGroup:     func(c Config, _ int) int { return c.SLDF.ChipCols * c.SLDF.ChipRows }, // one C-group
	},
	SingleSwitch: {
		name: "switch",
		vcs:  oneVC,
		build: func(c Config, classes topology.LinkClasses, opts netsim.NetworkOptions) (kindTopo, error) {
			s, err := topology.BuildSingleSwitch(c.Terminals, classes, opts)
			if err != nil {
				return kindTopo{}, err
			}
			return kindTopo{
				net:    s.Net,
				domain: s.FaultDomain,
				install: func() error {
					s.Net.SetRoute(s.Route())
					return nil
				},
				// The topology has no redundancy, so a recompute is pure
				// validation: a dead switch (or a dead terminal of a chip that
				// still has one) is a partition. Stranded packets were already
				// swept by the churn batch, so nothing needs sanitizing.
				faultRoute: func() (netsim.RouteFunc, sanitizeFunc, error) {
					route, err := routing.NewFaultSwitchRoute(s)
					return route, nil, err
				},
			}, nil
		},
		nodesPerChip: oneNIC,
		groups:       oneGroup,
		subGroup: func(_ Config, chips int) int { // near-square blocks
			_, cols := gridShape(chips)
			return cols
		},
	},
	MeshCGroup: {
		name:    "2d-mesh",
		aliases: []string{"mesh"},
		vcs:     oneVC,
		build: func(c Config, classes topology.LinkClasses, opts netsim.NetworkOptions) (kindTopo, error) {
			g, err := topology.BuildMeshCGroup(c.ChipletDim, c.NoCDim, classes, opts)
			if err != nil {
				return kindTopo{}, err
			}
			return kindTopo{
				net:     g.Net,
				domain:  g.FaultDomain,
				closure: g.FaultClosure,
				install: func() error {
					g.Net.SetRoute(g.RouteXY())
					return nil
				},
				faultRoute: func() (netsim.RouteFunc, sanitizeFunc, error) {
					fm, err := routing.NewFaultMeshRouter(g)
					if err != nil {
						return nil, nil, err
					}
					return fm.Func(), fm.Sanitize(), nil
				},
			}, nil
		},
		nodesPerChip: func(c Config) int { return c.NoCDim * c.NoCDim },
		groups:       oneGroup,
		subGroup:     func(c Config, _ int) int { return c.ChipletDim }, // one grid row
		// The snake (boustrophedon) order makes consecutive chips
		// physically adjacent.
		order: func(c Config) []int32 { return collective.SnakeOrder(c.ChipletDim, c.ChipletDim) },
	},
}

// The switch and the mesh route deadlock-free on one VC, faulted or not.
func oneVC(Config, bool) uint8 { return 1 }

func oneNIC(Config) int { return 1 }

func oneGroup(Config) int { return 1 }

// sldfScheme is the VC scheme a switch-less build uses: the restricted-lower
// mode is defined on the reduced scheme, so it forces ReducedVC.
func sldfScheme(c Config) routing.Scheme {
	if c.Mode == routing.ValiantLower {
		return routing.ReducedVC
	}
	return c.Scheme
}

// entry returns the kind's table entry, or nil for a kind outside the
// table (e.g. one decoded from a remote job payload).
func (k SystemKind) entry() *kindEntry {
	if int(k) < len(kinds) {
		return &kinds[k]
	}
	return nil
}

// String names the system kind.
func (k SystemKind) String() string {
	if e := k.entry(); e != nil {
		return e.name
	}
	return "unknown"
}

// ParseKind maps a system name — a kind's String or an alias such as
// "mesh" — to its kind.
func ParseKind(name string) (SystemKind, error) {
	names := make([]string, len(kinds))
	for k := range kinds {
		if kinds[k].name == name || slices.Contains(kinds[k].aliases, name) {
			return SystemKind(k), nil
		}
		names[k] = kinds[k].name
	}
	return 0, fmt.Errorf("core: unknown system kind %q (want %s)", name, strings.Join(names, ", "))
}

// Label returns the series label that Build assigns to a system built from
// this configuration, without building it. Sweeps use it so that a fully
// cached series never needs a network construction.
func (c Config) Label() string {
	e := c.Kind.entry()
	if e == nil {
		return "unknown"
	}
	if e.labelSuffix == nil {
		return e.name
	}
	return e.name + e.labelSuffix(c)
}
