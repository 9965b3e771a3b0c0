package routing

import (
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// DragonflyRoute returns the routing function for the switch-based
// Dragonfly baseline.
//
// Minimal: terminal → source switch → (local) → global-owning switch →
// (global) → destination group → (local) → destination switch → terminal,
// with VC0 in the source group and VC1 in the destination group.
//
// Valiant: every inter-group packet is first routed minimally to a random
// intermediate group (VC1 there), then minimally to the destination (VC2).
func DragonflyRoute(df *topology.Dragonfly, mode Mode) (netsim.RouteFunc, error) {
	if err := validateMode(mode); err != nil {
		return nil, err
	}
	g := df.Params.Groups()

	// vcFor returns the VC a packet uses while buffered at router rr.
	vcFor := func(net *netsim.Network, p *netsim.Packet, rr *netsim.Router) uint8 {
		wd, _, _ := df.Params.ChipLocation(p.DstChip)
		w := int(rr.WGroup)
		ws := int(net.Router(p.SrcNode).WGroup)
		switch {
		case w == wd:
			if mode == Valiant {
				return 2
			}
			return 1
		case w == ws:
			return 0
		default:
			return 1
		}
	}

	return func(net *netsim.Network, r *netsim.Router, p *netsim.Packet) (int, uint8) {
		wd, sd, td := df.Params.ChipLocation(p.DstChip)

		if r.Kind == netsim.KindNIC {
			if r.Chip == p.DstChip {
				return int(r.EjectOut), 0
			}
			// Valiant: pick the intermediate group once, at the source NIC.
			if mode == Valiant && p.Aux < 0 && int(r.WGroup) != wd && g > 2 {
				rng := p.RouteRNG(net, r)
				for {
					aux := int32(rng.Intn(g))
					if aux != r.WGroup && aux != int32(wd) {
						p.Aux = aux
						break
					}
				}
			}
			up := df.NICUplink(p.SrcChip)
			down := net.Router(net.OutPorts(r)[up].Dst)
			return up, vcFor(net, p, down)
		}

		// Switch.
		w, s := int(r.WGroup), int(r.CGroup)
		var out int
		switch {
		case w == wd && s == sd:
			out = df.TermPort(w, s, td)
		case w == wd:
			out = df.LocalPort(w, s, sd)
		default:
			// In the source group heading to the intermediate group (if
			// Valiant chose one), otherwise straight to the destination.
			wt := wd
			if p.Aux >= 0 && w != int(p.Aux) {
				wt = int(p.Aux)
			}
			so, k := df.GlobalOwner(w, wt)
			if s == so {
				out = df.GlobalPortIdx(w, s, k)
			} else {
				out = df.LocalPort(w, s, so)
			}
		}
		down := net.Router(net.OutPorts(r)[out].Dst)
		return out, vcFor(net, p, down)
	}, nil
}
