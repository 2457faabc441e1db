package netcl

import (
	"netcl/internal/apps"
	"netcl/internal/bmv2"
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/p4rt"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// Public facade: the runtime, simulator, and control-plane types that
// host applications use, re-exported from the internal packages so
// downstream code only imports this package.

// Messaging (the ncl:: host library of Table I).
type (
	// Message mirrors ncl::message: source and destination hosts, the
	// device asked to compute, and the computation id.
	Message = runtime.Message
	// MessageSpec is a computation's message layout (from kernel
	// specifications, §V-A).
	MessageSpec = runtime.MessageSpec
	// Header is the NetCL wire header (src, dst, from, to, comp, act,
	// arg — Fig. 10).
	Header = wire.Header
)

// Pack serializes a NetCL message (ncl::pack).
var Pack = runtime.Pack

// Unpack deserializes a NetCL message (ncl::unpack) into the caller's
// argument slices. It allocates nothing and ignores bytes past the data
// region, such as the reliable layer's seq trailer.
var Unpack = runtime.UnpackInto

// Reliable messaging (the Endpoint API).
type (
	// Endpoint is the unified host-side messaging surface: Send is
	// fire-and-forget, Recv suppresses duplicates, Call is a reliable
	// request/response with retransmission and exponential backoff.
	// Both the real-UDP HostConn and the simulator's HostEndpoint
	// implement it, each on a Channel of window 1; their Stats are
	// that channel's ChannelStats.
	Endpoint = runtime.Endpoint
	// ReliabilityConfig carries the retransmission knobs (timeout,
	// retry budget, backoff and its cap).
	ReliabilityConfig = runtime.ReliabilityConfig
	// HostEndpoint adapts a simulated host to the Endpoint interface.
	HostEndpoint = netsim.HostEndpoint
	// FaultSpec injects seeded probabilistic loss/duplication into the
	// real-UDP backend for chaos testing.
	FaultSpec = runtime.FaultSpec
	// FaultConfig is the simulator's richer fault model (loss, jitter,
	// duplication), armed with Network.InjectFaults.
	FaultConfig = netsim.FaultConfig
)

// Pipelined messaging (the windowed host path, DESIGN.md §9).
type (
	// Channel slides a window of unacked reliable messages over an
	// Endpoint's transport: one shared retransmit timer, per-entry
	// exponential backoff, anti-replay dedup. It is the one
	// reliability engine; at window 1 it is stop-and-wait. Created
	// with HostConn.NewChannel or HostEndpoint.NewChannel.
	Channel = runtime.Channel
	// ChannelConfig sizes the window and carries its reliability
	// knobs.
	ChannelConfig = runtime.ChannelConfig
	// ChannelStats snapshots the channel counters (sent, completed,
	// retransmits, duplicates, peak in-flight).
	ChannelStats = runtime.ChannelStats
	// Pending is an in-flight windowed call; Wait blocks for its
	// response.
	Pending = runtime.Pending
)

// PackAppend is Pack into a caller-owned buffer (zero-alloc with
// GetBuf/PutBuf scratch).
var PackAppend = runtime.PackAppend

// UnpackInto is Unpack under the runtime's name: the same function.
var UnpackInto = runtime.UnpackInto

// GetBuf and PutBuf recycle packing scratch through a pool.
var (
	GetBuf = runtime.GetBuf
	PutBuf = runtime.PutBuf
)

// Reliability errors and helpers.
var (
	// ErrTimeout reports that no message arrived within the deadline.
	ErrTimeout = runtime.ErrTimeout
	// ErrRetryBudget reports an exhausted retransmission budget.
	ErrRetryBudget = runtime.ErrRetryBudget
	// IsTimeout classifies receive errors as retryable timeouts.
	IsTimeout = runtime.IsTimeout
)

// Wire constants.
const (
	// NoNode marks an absent node id in a header's From/To fields.
	NoNode = wire.None
	// ActReflect et al. are the action codes of Table II.
	ActPass        = wire.ActPass
	ActDrop        = wire.ActDrop
	ActSendHost    = wire.ActSendHost
	ActSendDevice  = wire.ActSendDevice
	ActMulticast   = wire.ActMulticast
	ActReflect     = wire.ActReflect
	ActReflectLong = wire.ActReflectLong
)

// Simulation (the testbed substrate).
type (
	// Network is the discrete-event network simulator.
	Network = netsim.Network
	// Host is a simulated end system running Go callbacks.
	Host = netsim.Host
	// Device is a simulated P4 switch.
	Device = netsim.Device
	// SimTime is simulated time in nanoseconds.
	SimTime = netsim.Time
	// Switch is the behavioral-model P4 interpreter.
	Switch = bmv2.Switch
	// TableEntry is a match-action table entry.
	TableEntry = p4.Entry
	// KeyValue is one matched key of a table entry.
	KeyValue = p4.KeyValue
	// ActionCall invokes a table action with constant arguments.
	ActionCall = p4.ActionCall
)

// NewNetwork creates an empty simulated network.
func NewNetwork() *Network { return netsim.NewNetwork() }

// NewSwitch instantiates a behavioral-model switch for a program.
func NewSwitch(prog *p4.Program) *Switch { return bmv2.New(prog) }

// Control plane and managed memory (requirement R6).
type (
	// ControlPlane is the device control-plane surface (P4Runtime-like):
	// register reads plus transactional write batches.
	ControlPlane = p4rt.Client
	// WriteBatch groups control-plane mutations into one all-or-nothing
	// transaction: a packet observes the whole batch or none of it.
	WriteBatch = p4rt.WriteBatch
	// WriteResult reports per-op outcomes of a committed batch.
	WriteResult = p4rt.WriteResult
	// BatchError names the op that failed a Write; the batch had no
	// effect.
	BatchError = p4rt.BatchError
	// DeviceConnection mirrors ncl::device_connection: _managed_
	// memory access by NetCL-level names.
	DeviceConnection = runtime.DeviceConnection
	// ManagedTxn batches managed-memory mutations (register writes,
	// lookup inserts/deletes) into one transactional commit with
	// write-combining. Created with DeviceConnection.Txn.
	ManagedTxn = runtime.ManagedTxn
)

// NewWriteBatch returns an empty control-plane transaction.
func NewWriteBatch() *WriteBatch { return p4rt.NewWriteBatch() }

// DirectControlPlane binds a control plane to an in-process switch.
func DirectControlPlane(sw *Switch) ControlPlane { return &p4rt.Direct{SW: sw} }

// Connect builds a managed-memory connection for a compiled device.
func Connect(cp ControlPlane, dev *DeviceArtifact) *DeviceConnection {
	return &runtime.DeviceConnection{CP: cp, Mems: dev.Module.Mems}
}

// Real-UDP deployment backend.
type (
	// UDPDevice runs a compiled program behind a UDP socket.
	UDPDevice = runtime.UDPDevice
	// HostConn is a host-side UDP endpoint for NetCL messages; it
	// implements Endpoint.
	HostConn = runtime.HostConn
	// DeviceConfig parameterizes a UDP device process (id, address,
	// program, fault injection).
	DeviceConfig = runtime.DeviceConfig
	// DialConfig parameterizes a UDP host endpoint (id, addresses,
	// reliability knobs).
	DialConfig = runtime.DialConfig
)

// ServeDevice starts a UDP device process described by cfg.
func ServeDevice(cfg DeviceConfig) (*UDPDevice, error) {
	return runtime.ServeDevice(cfg)
}

// Dial opens a UDP host endpoint described by cfg.
func Dial(cfg DialConfig) (*HostConn, error) {
	return runtime.Dial(cfg)
}

// Evaluation applications (§VII), exposed for examples and tools.
type (
	// App is one of the paper's evaluation applications.
	App = apps.App
	// AggConfig/CacheConfig/PaxosConfig parameterize the end-to-end
	// experiment drivers of Figure 14 (simulated network).
	AggConfig   = apps.AggConfig
	CacheConfig = apps.CacheConfig
	PaxosConfig = apps.PaxosConfig
	// AggUDPConfig/PaxosUDPConfig drive the same workloads over the
	// real-UDP backend.
	AggUDPConfig   = apps.AggUDPConfig
	PaxosUDPConfig = apps.PaxosUDPConfig
	// Result is the uniform driver result returned by Run: a value
	// with a one-line Summary.
	Result = apps.Result
	// AggResult/CacheResult/PaxosResult are the typed driver results
	// (Run returns them behind the Result interface).
	AggResult   = apps.AggResult
	CacheResult = apps.CacheResult
	PaxosResult = apps.PaxosResult
)

// AppByName returns an evaluation application (AGG, CACHE, PAXOS, CALC).
func AppByName(name string) *App { return apps.ByName(name) }

// Run executes the experiment driver selected by the config type; app
// may be nil or the application the config drives.
func Run(app *App, cfg any) (Result, error) { return apps.Run(app, cfg) }

// RunAgg, RunCache, and RunPaxos drive the Figure 14 workloads on the
// simulated network; RunAggUDP and RunPaxosUDP drive AGG and PAXOS
// over real UDP sockets. All are reachable uniformly through Run.
var (
	RunAgg      = apps.RunAgg
	RunCache    = apps.RunCache
	RunPaxos    = apps.RunPaxos
	RunAggUDP   = apps.RunAggUDP
	RunPaxosUDP = apps.RunPaxosUDP
)
