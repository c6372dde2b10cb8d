// Package harness assembles reproducible experiment federations and runs
// the paper-reproduction suite (F1, F2, E1–E7). The same functions back
// cmd/disco-bench, which prints the tables, and the repository's Go
// benchmarks; disco.go's package doc describes the mechanisms they
// exercise.
package harness

import (
	"fmt"
	"strings"
	"time"

	"disco/internal/chaos"
	"disco/internal/core"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

// Fleet is a mediator federating n homogeneous person sources, optionally
// served over TCP with controllable availability and latency — the §1.2
// configuration scaled up.
type Fleet struct {
	M       *core.Mediator
	Servers []*wire.Server // nil entries when in-process
	// Proxies are the chaos proxies in front of the servers (nil entries
	// when the fleet was built without Chaos); the mediator dials the proxy,
	// so faults injected there hit its live pooled connections.
	Proxies []*chaos.Proxy
	Stores  []*source.RelStore
	// RowsPerSource is the number of person rows in each source.
	RowsPerSource int
}

// FleetConfig configures NewPersonFleet.
type FleetConfig struct {
	// Sources is the number of data sources (and extents).
	Sources int
	// RowsPerSource is the table size at each source.
	RowsPerSource int
	// TCP serves each source over a real socket; otherwise sources are
	// in-process engines.
	TCP bool
	// Chaos interposes a chaos.Proxy between the mediator and each TCP
	// server; ChaosSeed fixes the proxies' random choices (proxy i gets
	// ChaosSeed+i, so the proxies' draws are independent but reproducible).
	Chaos     bool
	ChaosSeed int64
	// Latency is injected per TCP reply.
	Latency time.Duration
	// Timeout is the mediator's evaluation deadline.
	Timeout time.Duration
	// MaxConcurrent, when positive, installs the mediator's admission gate
	// (core.WithAdmission) with the given queue bound and wait.
	MaxConcurrent int
	MaxQueued     int
	MaxQueueWait  time.Duration
	// MaxServerInflight caps concurrent request execution per TCP server
	// (wire.WithMaxServerInflight); zero means no server-wide cap.
	MaxServerInflight int
	// WrapperODL overrides the wrapper declaration; default full SQL.
	WrapperODL string
}

// NewPersonFleet builds the fleet. Each source i holds table person<i> of
// synthetic people (deterministic per i).
func NewPersonFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Sources <= 0 {
		return nil, fmt.Errorf("harness: fleet needs at least one source")
	}
	if cfg.RowsPerSource <= 0 {
		cfg.RowsPerSource = 50
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	opts := []core.Option{core.WithTimeout(cfg.Timeout)}
	if cfg.MaxConcurrent > 0 {
		opts = append(opts, core.WithAdmission(cfg.MaxConcurrent, cfg.MaxQueued, cfg.MaxQueueWait))
	}
	f := &Fleet{
		M:             core.New(opts...),
		RowsPerSource: cfg.RowsPerSource,
	}
	wrapperODL := cfg.WrapperODL
	if wrapperODL == "" {
		wrapperODL = `w0 := WrapperPostgres();`
	}

	var odl strings.Builder
	odl.WriteString(wrapperODL + "\n")
	odl.WriteString(`
interface Person (extent person) {
    attribute Short id;
    attribute String name;
    attribute Short salary;
}
`)
	for i := 0; i < cfg.Sources; i++ {
		table := fmt.Sprintf("person%d", i)
		store := source.NewRelStore()
		if err := source.GenPeople(store, table, cfg.RowsPerSource, int64(i)); err != nil {
			f.Close()
			return nil, err
		}
		f.Stores = append(f.Stores, store)

		addr := fmt.Sprintf("mem:r%d", i)
		if cfg.TCP {
			var srvOpts []wire.ServerOption
			if cfg.MaxServerInflight > 0 {
				srvOpts = append(srvOpts, wire.WithMaxServerInflight(cfg.MaxServerInflight))
			}
			srv, err := wire.NewServer("127.0.0.1:0", core.EngineHandler{Engine: store}, srvOpts...)
			if err != nil {
				f.Close()
				return nil, err
			}
			if cfg.Latency > 0 {
				srv.SetLatency(cfg.Latency)
			}
			f.Servers = append(f.Servers, srv)
			addr = srv.Addr()
			if cfg.Chaos {
				proxy, err := chaos.NewProxy(addr, cfg.ChaosSeed+int64(i))
				if err != nil {
					f.Close()
					return nil, err
				}
				f.Proxies = append(f.Proxies, proxy)
				addr = proxy.Addr()
			} else {
				f.Proxies = append(f.Proxies, nil)
			}
		} else {
			f.Servers = append(f.Servers, nil)
			f.Proxies = append(f.Proxies, nil)
			f.M.RegisterEngine(fmt.Sprintf("r%d", i), store)
		}
		fmt.Fprintf(&odl, "r%d := Repository(address=%q);\n", i, addr)
		fmt.Fprintf(&odl, "extent %s of Person wrapper w0 repository r%d;\n", table, i)
	}
	if err := f.M.ExecODL(odl.String()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// ShardedFleetConfig configures NewShardedFleet.
type ShardedFleetConfig struct {
	// Shards is the number of range partitions holding data.
	Shards int
	// Spares is the number of empty repositories declared alongside — the
	// destinations live migrations move, split, or merge shards to.
	Spares int
	// Rows is the total people row count across all shards; ids run
	// 0..Rows-1 and shard boundaries divide the range evenly.
	Rows int
	// TCP / Chaos / ChaosSeed / Latency / Timeout as in FleetConfig.
	TCP       bool
	Chaos     bool
	ChaosSeed int64
	Latency   time.Duration
	Timeout   time.Duration
}

// NewShardedFleet builds a fleet whose single extent "people" is
// range-partitioned on id across cfg.Shards repositories, with cfg.Spares
// more repositories declared but holding nothing. It is the live-migration
// soak fixture: the spares are where shards move, and with Chaos set every
// link — including the links migration copies travel over — sits behind a
// seeded fault proxy. Repository index i < Shards serves shard i; index
// i >= Shards is the (i-Shards)'th spare.
func NewShardedFleet(cfg ShardedFleetConfig) (*Fleet, error) {
	if cfg.Shards <= 1 {
		return nil, fmt.Errorf("harness: sharded fleet needs at least two shards")
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 60
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	f := &Fleet{
		M:             core.New(core.WithTimeout(cfg.Timeout)),
		RowsPerSource: cfg.Rows / cfg.Shards,
	}

	var odl strings.Builder
	odl.WriteString(`w0 := WrapperPostgres();
interface Person (extent person) {
    attribute Short id;
    attribute String name;
    attribute Short salary;
}
`)
	bound := func(i int) int { return i * cfg.Rows / cfg.Shards }
	total := cfg.Shards + cfg.Spares
	for i := 0; i < total; i++ {
		store := source.NewRelStore()
		if i < cfg.Shards {
			if err := store.CreateTable("people", "id", "name", "salary"); err != nil {
				f.Close()
				return nil, err
			}
			for id := bound(i); id < bound(i+1); id++ {
				if err := store.Insert("people",
					types.Int(int64(id)),
					types.Str(fmt.Sprintf("p%d", id)),
					types.Int(int64(id%1000)),
				); err != nil {
					f.Close()
					return nil, err
				}
			}
		}
		f.Stores = append(f.Stores, store)

		addr := fmt.Sprintf("mem:r%d", i)
		if cfg.TCP {
			srv, err := wire.NewServer("127.0.0.1:0", core.EngineHandler{Engine: store})
			if err != nil {
				f.Close()
				return nil, err
			}
			if cfg.Latency > 0 {
				srv.SetLatency(cfg.Latency)
			}
			f.Servers = append(f.Servers, srv)
			addr = srv.Addr()
			if cfg.Chaos {
				proxy, err := chaos.NewProxy(addr, cfg.ChaosSeed+int64(i))
				if err != nil {
					f.Close()
					return nil, err
				}
				f.Proxies = append(f.Proxies, proxy)
				addr = proxy.Addr()
			} else {
				f.Proxies = append(f.Proxies, nil)
			}
		} else {
			f.Servers = append(f.Servers, nil)
			f.Proxies = append(f.Proxies, nil)
			f.M.RegisterEngine(fmt.Sprintf("r%d", i), store)
		}
		fmt.Fprintf(&odl, "r%d := Repository(address=%q);\n", i, addr)
	}

	var parts, ranges []string
	for i := 0; i < cfg.Shards; i++ {
		parts = append(parts, fmt.Sprintf("r%d", i))
		switch {
		case i == 0:
			ranges = append(ranges, fmt.Sprintf("..%d", bound(1)))
		case i == cfg.Shards-1:
			ranges = append(ranges, fmt.Sprintf("%d..", bound(i)))
		default:
			ranges = append(ranges, fmt.Sprintf("%d..%d", bound(i), bound(i+1)))
		}
	}
	fmt.Fprintf(&odl, "extent people of Person wrapper w0 at %s\n    partition by range(id) (%s);\n",
		strings.Join(parts, ", "), strings.Join(ranges, ", "))
	if err := f.M.ExecODL(odl.String()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Close shuts down any TCP servers, chaos proxies, and the mediator's
// pooled connections.
func (f *Fleet) Close() {
	f.M.Close()
	for _, p := range f.Proxies {
		if p != nil {
			p.Close()
		}
	}
	for _, s := range f.Servers {
		if s != nil {
			s.Close()
		}
	}
}

// SetAvailable flips the availability of source i (TCP fleets only).
func (f *Fleet) SetAvailable(i int, up bool) {
	if f.Servers[i] != nil {
		f.Servers[i].SetAvailable(up)
	}
}

// AllAvailable restores every source.
func (f *Fleet) AllAvailable() {
	for i := range f.Servers {
		f.SetAvailable(i, true)
	}
}

// SetFault injects a chaos fault on the link to source i (Chaos fleets
// only).
func (f *Fleet) SetFault(i int, fault chaos.Fault) {
	if f.Proxies[i] != nil {
		f.Proxies[i].SetFault(fault)
	}
}

// AllHealthy clears every injected chaos fault.
func (f *Fleet) AllHealthy() {
	for i := range f.Proxies {
		f.SetFault(i, chaos.Healthy{})
	}
}

// TotalShed sums the requests the sources refused with an overload frame.
func (f *Fleet) TotalShed() int64 {
	var total int64
	for _, s := range f.Servers {
		if s != nil {
			total += s.Stats().Shed.Load()
		}
	}
	return total
}

// TotalBytesOut sums the bytes every source shipped to the mediator.
func (f *Fleet) TotalBytesOut() int64 {
	var total int64
	for _, s := range f.Servers {
		if s != nil {
			total += s.Stats().BytesOut.Load()
		}
	}
	return total
}

// TotalQueries sums the queries the sources served.
func (f *Fleet) TotalQueries() int64 {
	var total int64
	for _, s := range f.Servers {
		if s != nil {
			total += s.Stats().Queries.Load()
		}
	}
	return total
}

// Table is one experiment's printable result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table in aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
