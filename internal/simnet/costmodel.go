// Package simnet provides the deterministic network cost model for the
// modeled-time experiments, calibrated against the paper's Centurion testbed
// (16 dual 400 MHz Pentium IIs on 100 Mbps switched Ethernet).
//
// The paper's multi-second results (implementation downloads, stale-binding
// discovery, multi-component object creation) cannot be reproduced in
// real time inside a benchmark harness; they are reproduced here in virtual
// time using costs derived from the numbers the paper reports.
package simnet

import (
	"time"
)

// CostModel computes modeled durations for network operations. Bulk
// transfers in Legion go through the object message layer in chunks, each
// paying marshalling/scheduling overhead, which is why the paper's effective
// download throughput (~0.3 MB/s) is far below raw Ethernet bandwidth.
type CostModel struct {
	// RTT is the round-trip latency between two nodes.
	RTT time.Duration
	// BandwidthBps is the raw link bandwidth in bits per second.
	BandwidthBps int64
	// PerMessageCPU is the processing cost each message pays on the
	// receiving node (demarshalling, dispatch).
	PerMessageCPU time.Duration
	// ChunkSize is the bulk-transfer chunk size in bytes.
	ChunkSize int64
	// PerChunkOverhead is the Legion message-layer cost per bulk chunk
	// (marshalling through objects, scheduling); it dominates transfer time.
	PerChunkOverhead time.Duration
	// TransferStartup is the fixed cost to begin a bulk transfer (locating
	// the source object, opening the stream, metadata exchange).
	TransferStartup time.Duration
	// ProcessSpawn is the cost to create a new OS process for an object
	// (fork/exec, linking the monolithic executable, runtime init).
	ProcessSpawn time.Duration
	// ComponentBind is the per-component cost to incorporate an already
	// downloaded component into a running DCDO (reading the descriptor and
	// mapping the code into the address space). The paper reports ~200 µs
	// per cached component — but object *creation* from many components
	// pays a much larger per-component cost (ICO lookup + remote read),
	// captured by ComponentFetch.
	ComponentBind time.Duration
	// ComponentFetch is the per-component cost during object creation to
	// contact the component's ICO and read its (small) descriptor+code when
	// it is not already cached at the host.
	ComponentFetch time.Duration
}

// Centurion returns the cost model calibrated against the numbers the paper
// reports for the Centurion testbed:
//
//   - 550 KB implementation download ≈ 4 s, 5.1 MB ≈ 15–25 s
//   - monolithic object creation ≈ 2.2 s
//   - 500 functions / 50 components creation ≈ 10 s
//   - cached component incorporation ≈ 200 µs each
func Centurion() CostModel {
	return CostModel{
		RTT:              500 * time.Microsecond,
		BandwidthBps:     100_000_000, // 100 Mbps switched Ethernet
		PerMessageCPU:    100 * time.Microsecond,
		ChunkSize:        64 << 10,
		PerChunkOverhead: 210 * time.Millisecond,
		TransferStartup:  2 * time.Second,
		ProcessSpawn:     2 * time.Second,
		ComponentBind:    200 * time.Microsecond,
		ComponentFetch:   155 * time.Millisecond,
	}
}

// MessageTime is the modeled one-way cost of a small control message.
func (m CostModel) MessageTime(bytes int64) time.Duration {
	return m.RTT/2 + m.serialization(bytes) + m.PerMessageCPU
}

// RPCTime is the modeled round-trip cost of a request/response exchange with
// the given payload sizes.
func (m CostModel) RPCTime(reqBytes, respBytes int64) time.Duration {
	return m.RTT + m.serialization(reqBytes) + m.serialization(respBytes) + 2*m.PerMessageCPU
}

// TransferTime is the modeled cost of a bulk transfer of the given size
// through the object message layer (the path implementation downloads take).
func (m CostModel) TransferTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	chunks := (bytes + m.ChunkSize - 1) / m.ChunkSize
	perChunk := m.RTT + m.PerChunkOverhead + m.serialization(min64(bytes, m.ChunkSize))
	return m.TransferStartup + time.Duration(chunks)*perChunk
}

// CreationTime is the modeled cost to create an object whose implementation
// is split into components. A monolithic object (components == 1 with
// monolithic true) pays only process spawn; a DCDO pays spawn plus a
// per-component fetch+bind.
func (m CostModel) CreationTime(components int, monolithic bool) time.Duration {
	if monolithic || components <= 0 {
		return m.ProcessSpawn + 200*time.Millisecond // spawn + small executable setup
	}
	perComponent := m.ComponentFetch + m.ComponentBind
	return m.ProcessSpawn + time.Duration(components)*perComponent
}

func (m CostModel) serialization(bytes int64) time.Duration {
	if m.BandwidthBps <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(bytes * 8 * int64(time.Second) / m.BandwidthBps)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
