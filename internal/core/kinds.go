package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"sldf/internal/collective"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// kindEntry is everything the package knows about one system kind. Build,
// Config.Label, SystemKind.String, ParseKind, ParseSystem and the collective
// and ring embeddings all read it, so adding a topology means adding one
// entry to kinds.
type kindEntry struct {
	// name is the kind's canonical name (String, Label, CLIs); aliases are
	// further names ParseKind and ParseSystem accept.
	name    string
	aliases []string
	// variants are the grammar suffixes the kind implements (see
	// ParseSystem); validate rejects any other variant, so it is never
	// built as the kind's default under the variant's name.
	variants []string
	// vcs is the per-link virtual-channel count of a build.
	vcs func(c Config, faulted bool) uint8
	// build constructs the topology over the given link classes.
	build func(c Config, classes topology.LinkClasses, opts netsim.NetworkOptions) (kindTopo, error)
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
	// component liveness (a netsim.FaultRouteBuilder). sanitize is nil when a
	// mid-run swap to the new tables leaves no in-flight packet to retire.
	faultRoute func() (route netsim.RouteFunc, sanitize sanitizeFunc, err error)
}

// kinds is the system-kind table, indexed by SystemKind.
var kinds = [...]kindEntry{
	SwitchDragonfly: {
		name:     "sw-based",
		variants: []string{"-mis"},
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
		nodesPerChip: oneNIC,
		groups:       func(c Config) int { return c.DF.Groups() },
		subGroup:     func(c Config, _ int) int { return c.DF.P }, // one switch
	},
	SwitchlessDragonfly: {
		name:     "sw-less",
		variants: []string{"-2B", "-4B", "-mis", "-mis-lower", "-rvc"},
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

// The system-name grammar: a name is a kind's name (or alias) followed by
// at most one suffix from each table, in this order. Each table is indexed
// by the Config field value its suffix sets; a default (1B, minimal routing,
// the baseline VC scheme) has no suffix.
var (
	widthSuffixes  = []string{2: "-2B", 4: "-4B"}
	modeSuffixes   = []string{routing.Valiant: "-mis", routing.ValiantLower: "-mis-lower"}
	schemeSuffixes = []string{routing.ReducedVC: "-rvc"}
)

// suffix returns the table's suffix for v: "" for a default or a value
// outside the grammar.
func suffix[T ~int32 | ~uint8](table []string, v T) string {
	if int(v) < 0 || int(v) >= len(table) {
		return ""
	}
	return table[v]
}

// cut cuts the longest suffix of the table that starts name, returning its
// value (0, the default, when none does) and the rest of name.
func cut(table []string, name string) (int, string) {
	v := 0
	for i, s := range table {
		if s != "" && strings.HasPrefix(name, s) && len(s) > len(table[v]) {
			v = i
		}
	}
	return v, name[len(table[v]):]
}

// SystemGrammar describes the names ParseSystem accepts, one pattern per
// kind, e.g. "sw-based[-mis]"; command help text prints it.
func SystemGrammar() string {
	patterns := make([]string, len(kinds))
	for k, e := range kinds {
		patterns[k] = e.name
		for _, table := range [][]string{widthSuffixes, modeSuffixes, schemeSuffixes} {
			group := slices.DeleteFunc(slices.Clone(table), func(s string) bool {
				return !slices.Contains(e.variants, s)
			})
			if len(group) > 0 {
				patterns[k] += "[" + strings.Join(group, "|") + "]"
			}
		}
		if len(e.aliases) > 0 {
			patterns[k] += " (alias " + strings.Join(e.aliases, ", ") + ")"
		}
	}
	return strings.Join(patterns, " | ")
}

// ParseSystem maps a system name such as "sw-less-2B-mis" to the kind and
// variant fields of its Config (Kind, IntraWidth, Mode, Scheme); sizes and
// seeds are the caller's. It accepts every name Config.Label returns, and
// rejects a variant the kind does not implement.
func ParseSystem(name string) (Config, error) {
	for k, e := range kinds {
		for _, base := range append([]string{e.name}, e.aliases...) {
			rest, ok := strings.CutPrefix(name, base)
			if !ok {
				continue
			}
			width, rest := cut(widthSuffixes, rest)
			mode, rest := cut(modeSuffixes, rest)
			scheme, rest := cut(schemeSuffixes, rest)
			if rest == "" {
				c := Config{Kind: SystemKind(k), IntraWidth: int32(width),
					Mode: routing.Mode(mode), Scheme: routing.Scheme(scheme)}
				return c, c.validate()
			}
		}
	}
	return Config{}, fmt.Errorf("core: unknown system %q (want %s)", name, SystemGrammar())
}

// validate rejects an unknown kind, a width, routing mode or VC scheme the
// kind does not implement (named by its suffix if it has one), and invalid
// fault or churn specs.
func (c Config) validate() error {
	e := c.Kind.entry()
	if e == nil {
		return fmt.Errorf("core: unknown system kind %d", c.Kind)
	}
	switch w, m, sc := suffix(widthSuffixes, c.IntraWidth), suffix(modeSuffixes, c.Mode), suffix(schemeSuffixes, c.Scheme); {
	case c.IntraWidth != 0 && c.IntraWidth != 1 && !e.implements(w):
		return e.lacks(w, fmt.Sprintf("IntraWidth %d", c.IntraWidth))
	case c.Mode != routing.Minimal && !e.implements(m):
		return e.lacks(m, c.Mode.String()+" routing")
	case c.Scheme != routing.BaselineVC && !e.implements(sc):
		return e.lacks(sc, "the "+c.Scheme.String()+" VC scheme")
	}
	return errors.Join(c.Faults.Validate(), c.Churn.Validate())
}

// implements reports whether the kind implements the variant of a suffix.
func (e *kindEntry) implements(suffix string) bool {
	return suffix != "" && slices.Contains(e.variants, suffix)
}

// lacks reports a variant the kind does not implement, by its suffix when
// it has one.
func (e *kindEntry) lacks(suffix, variant string) error {
	if suffix != "" {
		variant = suffix + " (" + variant + ")"
	}
	return fmt.Errorf("core: %s does not implement %s", e.name, variant)
}

// Label returns the series label that Build assigns to a system built from
// this configuration, without building it: the grammar name of the network
// built, so restricted-lower routing carries the -rvc it forces. Sweeps use
// it so that a fully cached series never needs a network construction.
func (c Config) Label() string {
	e := c.Kind.entry()
	if e == nil {
		return "unknown"
	}
	return e.name + suffix(widthSuffixes, c.IntraWidth) +
		suffix(modeSuffixes, c.Mode) + suffix(schemeSuffixes, sldfScheme(c))
}
