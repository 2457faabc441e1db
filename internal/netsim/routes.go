package netsim

// routes.go is the one route planner behind AutoWire, InstallRoutes
// and RerouteBatches: the operator step that maps the assumed topology
// onto the real network (§III) by programming every device's
// netcl_fwd table, keyed by node id. It builds the usable device graph
// once and runs one BFS per destination root, cached, so every host
// shares its attach device's. Every order is pinned — devices by id,
// ports ascending, keys ascending, ECMP group ids in first-use order —
// so an identical network plans identical tables entry for entry.

import (
	"fmt"
	"slices"
	"sort"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/wire"
)

// noRouteError is the planner's refusal: a device of the graph cannot
// reach a destination. Nothing is written when planning fails.
type noRouteError struct{ from, to uint16 }

func (e *noRouteError) Error() string {
	return fmt.Sprintf("netsim: no route from device %d to %d", e.from, e.to)
}

// planner is the usable device graph: its devices ascending by id,
// each with its device links (port ascending), and the hosts attached
// to them.
type planner struct {
	devs      []*Device
	node      map[*Device]int // device → index in devs
	links     [][]hop         // per device: links to other graph devices
	devRoutes []route         // one route per device, keyed by its id
	hosts     []route         // one route per attached host, device order
	dist      [][]int         // per root: BFS hop counts, nil until asked
}

// hop is one usable link: the local port and the peer's graph index.
type hop struct{ port, peer int }

// route is one destination key: the graph device its BFS is rooted at
// and, for a host, the root's port toward it (-1 for a device key).
type route struct {
	key      uint16
	root     int
	hostPort int
}

// step is one device's ascending shortest-path egress ports for a key.
type step struct {
	key   uint16
	ports []int
}

// newPlanner builds the graph over devs, leaving out the dead ones
// and, when skipDown is set, links with a down direction. Hosts on a
// dead device keep their route with root -1.
func newPlanner(devs, dead []*Device, skipDown bool) *planner {
	devs = append([]*Device(nil), devs...)
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	pl := &planner{node: map[*Device]int{}}
	for _, d := range devs {
		if !slices.Contains(dead, d) {
			pl.node[d] = len(pl.devs)
			pl.devRoutes = append(pl.devRoutes, route{key: d.ID, root: len(pl.devs), hostPort: -1})
			pl.devs = append(pl.devs, d)
		}
	}
	pl.links = make([][]hop, len(pl.devs))
	pl.dist = make([][]int, len(pl.devs))
	for _, d := range devs {
		i, ok := pl.node[d]
		if !ok {
			i = -1
		}
		for p, li := range d.ports {
			if li == 0 {
				continue
			}
			l := d.net.links.at(li - 1)
			switch peer := l.peerOf(d, p); {
			case !peer.isDevice():
				pl.hosts = append(pl.hosts, route{key: d.net.hs.at(peer.node).ID, root: i, hostPort: p})
			case ok && !(skipDown && (l.down[0] || l.down[1])):
				if j, ok := pl.node[d.net.devs[peer.deviceIdx()]]; ok {
					pl.links[i] = append(pl.links[i], hop{port: p, peer: j})
				}
			}
		}
	}
	return pl
}

// bfs returns every device's hop count to root (-1 when unreachable),
// computed once per root.
func (pl *planner) bfs(root int) []int {
	if d := pl.dist[root]; d != nil {
		return d
	}
	dist := make([]int, len(pl.devs))
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range pl.links[cur] {
			if dist[h.peer] < 0 {
				dist[h.peer] = dist[cur] + 1
				queue = append(queue, h.peer)
			}
		}
	}
	pl.dist[root] = dist
	return dist
}

// plan sorts routes by key in place and gives every device its steps
// for them. At a route's root a host route egresses to the host and a
// device route yields no step: the compiled toMe check answers there.
// A route with root -1 gives every device a step without ports: the
// key is to be deleted. Of routes sharing a key the first one given
// that yields a step wins, so a device listed ahead of a host with its
// id shadows it everywhere but at the device itself.
func (pl *planner) plan(routes []route) ([][]step, error) {
	sort.SliceStable(routes, func(i, j int) bool { return routes[i].key < routes[j].key })
	out := make([][]step, len(pl.devs))
	for i := range pl.devs {
		for _, r := range routes {
			if s := out[i]; len(s) > 0 && s[len(s)-1].key == r.key {
				continue
			}
			var ports []int
			switch {
			case r.root < 0:
			case i == r.root && r.hostPort < 0:
				continue
			case i == r.root:
				ports = []int{r.hostPort}
			case pl.bfs(r.root)[i] < 0:
				return nil, &noRouteError{from: pl.devs[i].ID, to: r.key}
			default:
				dist := pl.bfs(r.root)
				for _, h := range pl.links[i] {
					if dist[h.peer] == dist[i]-1 {
						ports = append(ports, h.port)
					}
				}
			}
			out[i] = append(out[i], step{key: r.key, ports: ports})
		}
	}
	return out, nil
}

// entry is a table entry with exact keys calling action(arg).
func entry(action string, arg int, keys ...int) *p4.Entry {
	e := &p4.Entry{Action: &p4.ActionCall{Name: action, Args: []uint64{uint64(arg)}}}
	for _, k := range keys {
		e.Keys = append(e.Keys, p4.KeyValue{Value: uint64(k), PrefixLen: -1})
	}
	return e
}

// install plans routes, then writes each device's netcl_fwd entries —
// and, with ecmp, a netcl_ecmp group per distinct multi-port set — as
// one WriteBatch, devices ascending. Without ecmp, ties break to the
// lowest port.
func (pl *planner) install(routes []route, ecmp bool) error {
	plan, err := pl.plan(routes)
	if err != nil {
		return err
	}
	for i, d := range pl.devs {
		b := bmv2.NewWriteBatch()
		groups := map[string]int{}
		for _, s := range plan[i] {
			if !ecmp || len(s.ports) == 1 {
				b.Insert("netcl_fwd", entry("set_port", s.ports[0], int(s.key)))
				continue
			}
			set := fmt.Sprint(s.ports)
			gid, ok := groups[set]
			if !ok {
				gid = len(groups) + 1
				groups[set] = gid
				for bk := 0; bk < wire.ECMPBuckets; bk++ {
					b.Insert("netcl_ecmp", entry("set_port", s.ports[bk%len(s.ports)], gid, bk))
				}
			}
			b.Insert("netcl_fwd", entry("set_ecmp_group", gid, int(s.key)))
		}
		if b.Len() == 0 {
			continue
		}
		if _, err := d.SW.Write(b); err != nil {
			return fmt.Errorf("netsim: device %d: %w", d.ID, err)
		}
	}
	return nil
}
