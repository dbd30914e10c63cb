package main

import (
	"math/rand"
)

// A mix describes the inputs one workload draws: which functions (grouped
// into classes with a share each), which payload sizes, and what share of
// operations are writes. Everything the program under test sees comes out of
// a generator built from a mix and a seed.
type mix struct {
	objects    int
	classes    []fnClass
	sizes      []sizeShare
	writeShare float64
}

type fnClass struct {
	names []string
	share float64
}

type sizeShare struct {
	bytes int
	share float64
}

// opIDBytes is the prefix of every payload that carries the operation's
// sequence number: the identifier the trace seams share across the wire.
const opIDBytes = 8

// payloadPoolBytes bounds each caller's pool of distinct payloads per size
// class, so sixteen callers add well under 2 MiB to the live heap.
const payloadPoolBytes = 64 << 10

// An opSpec is one generated operation. payload is owned by the generator's
// caller and stays valid until that caller draws the same pool slot again;
// callers are closed-loop, so that is after the reply has been checked.
type opSpec struct {
	object  int
	fn      string
	payload []byte
	write   bool
}

// A generator yields one caller's operation sequence. The same (seed, caller)
// pair yields the same sequence, byte for byte.
type generator struct {
	rng   *rand.Rand
	m     mix
	pools [][][]byte // per size class
}

func newGenerator(m mix, seed int64, caller int) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed + int64(caller))), m: m}
	for _, s := range m.sizes {
		n := payloadPoolBytes / s.bytes
		if n > 32 {
			n = 32
		}
		if n < 4 {
			n = 4
		}
		pool := make([][]byte, n)
		for i := range pool {
			pool[i] = make([]byte, s.bytes)
			g.rng.Read(pool[i])
		}
		g.pools = append(g.pools, pool)
	}
	return g
}

func (g *generator) next() opSpec {
	var op opSpec
	op.object = g.rng.Intn(g.m.objects)
	class := &g.m.classes[0]
	if len(g.m.classes) > 1 {
		r := g.rng.Float64()
		for i := range g.m.classes {
			class = &g.m.classes[i]
			if r < class.share {
				break
			}
			r -= class.share
		}
	}
	op.fn = class.names[g.rng.Intn(len(class.names))]
	sc := 0
	if len(g.m.sizes) > 1 {
		r := g.rng.Float64()
		for i, s := range g.m.sizes {
			sc = i
			if r < s.share {
				break
			}
			r -= s.share
		}
	}
	pool := g.pools[sc]
	op.payload = pool[g.rng.Intn(len(pool))]
	if g.m.writeShare > 0 {
		op.write = g.rng.Float64() < g.m.writeShare
	}
	return op
}
