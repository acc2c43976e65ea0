// Package cluster is hyperline's distributed serving tier: a stateless
// scatter-gather router (cmd/hyperrouter) in front of N hyperlined
// replicas. Dataset ownership is decided by a consistent-hash ring on
// dataset names with R-way replication; a /v2/query s-list is sharded
// across the healthy owners, each shard carries the remaining request
// deadline over the wire as timeout_ms, and per-s entries are merged
// back in order. Replica 429/Retry-After answers translate into router
// shed decisions. The router holds no dataset state and caches
// nothing — every answer is a replica's answer, byte for byte.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerNode is the virtual-node fan per member. 256 keeps the
// ownership split close to even even for 2-3 member clusters (fewer
// vnodes leave visibly lopsided primary shares) while the ring build
// stays trivially cheap.
const vnodesPerNode = 256

// vnode is one virtual point on the ring.
type vnode struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over replica base URLs.
// Membership changes rebuild the ring (cheap: members are few); lookups
// are lock-free on the immutable value.
type Ring struct {
	vnodes []vnode
	nodes  []string
}

// NewRing builds a ring over the given node identifiers (duplicates and
// empty strings are dropped).
func NewRing(nodes []string) *Ring {
	r := &Ring{}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < vnodesPerNode; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: ringHash(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		return r.vnodes[i].node < r.vnodes[j].node
	})
	return r
}

// Nodes returns the ring members, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Owners returns up to n distinct nodes for key, walking clockwise from
// the key's ring position — the stable R-way replica set for a dataset.
// Ownership is a pure function of membership, so every router instance
// (the tier is stateless) derives the same placement.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.vnodes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	owners := make([]string, 0, n)
	taken := make(map[string]bool, n)
	for i := 0; i < len(r.vnodes) && len(owners) < n; i++ {
		node := r.vnodes[(start+i)%len(r.vnodes)].node
		if !taken[node] {
			taken[node] = true
			owners = append(owners, node)
		}
	}
	return owners
}

// ringHash is 64-bit FNV-1a — stable across processes and Go versions,
// which placement must be.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
