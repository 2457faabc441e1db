// paxos: consensus as a network service (the paper's P4xos
// reproduction, Figure 11). One NetCL program defines three kernels of
// a single computation, placed with _at() on the leader, the acceptor
// group, and the learner; the simulator deploys them on five switches
// and a client drives commands through the fabric.
//
//	go run ./examples/paxos
package main

import (
	"fmt"
	"log"

	"netcl"
)

func main() {
	fmt.Println("in-network Paxos: leader + 3 acceptors + learner")
	app := netcl.AppByName("PAXOS")
	r, err := netcl.Run(app, netcl.PaxosConfig{Commands: 32, Target: netcl.TargetTNA})
	if err != nil {
		log.Fatal(err)
	}
	res := r.(*netcl.PaxosResult)
	fmt.Printf("submitted %d commands, delivered %d, wrong values %d\n",
		res.Submitted, res.Delivered, res.WrongValue)
	if res.Delivered == res.Submitted && res.WrongValue == 0 {
		fmt.Println("every command was chosen by a quorum and delivered exactly once")
	}

	// Chaos: the client retransmits commands the learner has not
	// delivered; retried commands are chosen under fresh instances and
	// deduplicated by value, so delivery stays exactly-once.
	lossy, err := netcl.Run(app, netcl.PaxosConfig{
		Commands: 32, Target: netcl.TargetTNA,
		Faults: netcl.FaultConfig{LossRate: 0.01, Seed: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("under 1% injected loss:", lossy.Summary())

	// Show the multi-kernel placement in the source: the same
	// computation id, three locations, matching specifications (§V-C).
	for _, dev := range []uint16{1, 2, 5} {
		art, err := netcl.Compile("paxos", app.NetCL, netcl.Options{
			Target: netcl.TargetTNA, Devices: []uint16{dev},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("device %d compiles %d kernel(s); message specification %s\n",
			dev, len(art.Device(dev).Module.Funcs), art.Specs[1])
	}
}
