package netsim

// reroute.go is failure re-route: the route planner (routes.go) plans
// single paths (lowest surviving port) over the surviving fabric, and
// RerouteBatches diffs the plan against each device's live netcl_fwd
// table, one transactional WriteBatch per device. Entries already
// pointing the right way are untouched, changed next hops become
// Modify ops and keys that vanished behind a dead device become Delete
// ops, so a batch applied mid-run disturbs only the paths that moved.
// The diff compares against single paths, so every key a live device
// routes through an ECMP group becomes a set_port entry, whether or
// not the failure touched its paths; the netcl_ecmp groups stay behind
// unused. That trades load balance for the simplest consistent update.

import (
	"fmt"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
)

// RerouteOptions configures RerouteBatches.
type RerouteOptions struct {
	// Dead lists devices to route around: they contribute no adjacency,
	// get no batch, and destinations keyed by their id are deleted —
	// unless redirected.
	Dead []*Device
	// Redirect maps a logical destination id (a dead device's compiled
	// identity) to the standby device that now answers for it: routes
	// for the key are rebuilt toward the standby. The standby must be
	// compiled with the logical id for toMe interception to work; its
	// own physical id keeps its ordinary routes.
	Redirect map[uint16]*Device
}

// DeviceBatch pairs a device with the WriteBatch that repairs its
// forwarding state.
type DeviceBatch struct {
	Dev   *Device
	Batch *bmv2.WriteBatch
}

// RerouteBatches computes per-device forwarding repairs for the fabric
// after the given failures. Links with an administratively-down
// direction (SetPortDown/SetLinkDown) and dead devices are excluded
// from the path graph. Host keys follow the live tables: a host some
// live device routes is re-routed everywhere, and one behind a dead
// device is deleted. The result lists only devices whose tables
// change, devices ascending by id, each batch's ops in ascending
// destination-key order — fully deterministic, so a timeline applying
// the batches at fixed virtual times is partition-count invariant.
// Batches are returned, not applied: schedule each through its
// device's At hook so the write lands in the owning partition.
func (t *Topo) RerouteBatches(opts RerouteOptions) ([]DeviceBatch, error) {
	pl := newPlanner(t.Devices(), opts.Dead, true)

	// Destinations: live devices route to themselves, redirected
	// logical ids to their standby, and a host to its attach device
	// when some live device routes it. Dead ids nobody answers for and
	// hosts behind a dead device (root -1) are deleted wherever present.
	routes := pl.devRoutes
	for _, d := range opts.Dead {
		if opts.Redirect[d.ID] == nil {
			routes = append(routes, route{key: d.ID, root: -1})
		}
	}
	for k, standby := range opts.Redirect {
		i, ok := pl.node[standby]
		if !ok {
			return nil, fmt.Errorf("netsim: redirect %d targets dead device %d", k, standby.ID)
		}
		routes = append(routes, route{key: k, root: i, hostPort: -1})
	}
	live := make([]map[uint16]*p4.Entry, len(pl.devs))
	routed := map[uint16]bool{}
	for i, d := range pl.devs {
		live[i] = map[uint16]*p4.Entry{}
		for _, e := range d.SW.Entries("netcl_fwd") {
			live[i][uint16(e.Keys[0].Value)] = e
			routed[uint16(e.Keys[0].Value)] = true
		}
	}
	for _, h := range pl.hosts {
		if h.root < 0 || routed[h.key] {
			routes = append(routes, h)
		}
	}
	plan, err := pl.plan(routes)
	if err != nil {
		return nil, err
	}

	var out []DeviceBatch
	for i, d := range pl.devs {
		b := bmv2.NewWriteBatch()
		for _, s := range plan[i] {
			switch cur, ok := live[i][s.key]; {
			case s.ports == nil && ok:
				b.Delete("netcl_fwd", uint64(s.key))
			case s.ports == nil:
			case !ok:
				b.Insert("netcl_fwd", entry("set_port", s.ports[0], int(s.key)))
			case cur.Action.Name != "set_port" || cur.Action.Args[0] != uint64(s.ports[0]):
				b.Modify("netcl_fwd", entry("set_port", s.ports[0], int(s.key)))
			}
		}
		if b.Len() > 0 {
			out = append(out, DeviceBatch{Dev: d, Batch: b})
		}
	}
	return out, nil
}
