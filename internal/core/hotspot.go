// Hotspot detection (history: the live-migration entry of CHANGES.md): the
// mediator counts logical reads per shard (the denominator lives in
// runtime.go's submit path) and surfaces the shards drawing an outsized
// share of their extent's traffic, with a rebalance recommendation the
// live-migration machinery can act on — split a hot range shard, or move it
// to a quieter repository.
package core

import (
	"fmt"
	"sort"
	"strings"

	"disco/internal/algebra"
)

// HotShardMinReads is the minimum total read count an extent must have
// accumulated before its shards can be called hot: below it the shares are
// noise, not load.
const HotShardMinReads = 16

// HotShardFactor is the skew threshold: a shard is hot when its share of the
// extent's reads is at least this multiple of the fair share (1/shards).
const HotShardFactor = 2.0

// HotShard is one overloaded shard of a partitioned extent, with the
// rebalance the traffic skew recommends.
type HotShard struct {
	// Shard is the extent@repo name, Extent/Repo its parts.
	Shard  string
	Extent string
	Repo   string
	// Reads is the shard's logical read count, Share its fraction of the
	// extent's total reads.
	Reads int64
	Share float64
	// Advice is the recommended rebalance, phrased for the Explain report.
	Advice string
}

// ShardTraffic returns the per-shard logical read counters, keyed extent@repo
// (plain extent for unpartitioned extents). Reads are counted once per shard
// access regardless of failover, hedging or dual-read fan-out.
func (m *Mediator) ShardTraffic() map[string]int64 {
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	out := make(map[string]int64, len(m.shardReads))
	for k, v := range m.shardReads {
		out[k] = v
	}
	return out
}

// HotShards reports the shards whose share of their extent's read traffic is
// at least HotShardFactor times the fair share, hottest first. Extents with
// fewer than HotShardMinReads total reads, and unpartitioned extents (no
// siblings to rebalance against), report nothing.
func (m *Mediator) HotShards() []HotShard {
	byExtent := map[string]map[string]int64{}
	for shard, n := range m.ShardTraffic() {
		ext, repo, ok := strings.Cut(shard, "@")
		if !ok {
			continue
		}
		if byExtent[ext] == nil {
			byExtent[ext] = map[string]int64{}
		}
		byExtent[ext][repo] += n
	}
	var out []HotShard
	for ext, repos := range byExtent {
		me, err := m.catalog.Extent(ext)
		if err != nil || !me.Partitioned() {
			continue
		}
		shards := len(me.Partitions())
		var total int64
		for _, n := range repos {
			total += n
		}
		if shards < 2 || total < HotShardMinReads {
			continue
		}
		fair := 1.0 / float64(shards)
		for repo, n := range repos {
			share := float64(n) / float64(total)
			if share < HotShardFactor*fair {
				continue
			}
			hs := HotShard{
				Shard: ext + "@" + repo, Extent: ext, Repo: repo,
				Reads: n, Share: share,
			}
			if me.Scheme != nil && me.Scheme.Kind == algebra.PartRange {
				hs.Advice = fmt.Sprintf("split %s or move it to a quieter repository", hs.Shard)
			} else {
				hs.Advice = fmt.Sprintf("move %s to a quieter repository", hs.Shard)
			}
			out = append(out, hs)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// hotShardReport renders the hot-shard lines Explain appends to the
// optimizer's report; empty when nothing is hot.
func (m *Mediator) hotShardReport() string {
	hot := m.HotShards()
	if len(hot) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("hot shards: ")
	for i, hs := range hot {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s (%.0f%%)", hs.Shard, hs.Share*100)
	}
	b.WriteByte('\n')
	for _, hs := range hot {
		fmt.Fprintf(&b, "rebalance: %s\n", hs.Advice)
	}
	return b.String()
}
