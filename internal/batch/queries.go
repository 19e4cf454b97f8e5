package batch

import (
	"fmt"
	"math"
	"sort"
	"time"

	"skyway/internal/datagen"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/metrics"
)

// The five TPC-H-derived queries of §5.3 (Table 3). Each returns a scalar
// digest of its result set so runs under different serializers can be
// checked for identical answers.
//
//	QA  pricing summary for items shipped in the window     (TPC-H Q1 shape)
//	QB  minimum-cost supplier per part per region            (Q2 shape)
//	QC  shipping priority / revenue of pending orders        (Q3 shape)
//	QD  late orders per quarter                              (Q4 shape)
//	QE  lost revenue from returned items by customer         (Q10 shape)

// Query identifies one of the five workloads.
type Query string

// The query set.
const (
	QA Query = "QA"
	QB Query = "QB"
	QC Query = "QC"
	QD Query = "QD"
	QE Query = "QE"
)

// AllQueries lists the benchmark queries in report order.
func AllQueries() []Query { return []Query{QA, QB, QC, QD, QE} }

// Describe returns the Table 3 description of q.
func Describe(q Query) string {
	switch q {
	case QA:
		return "Report pricing details for all items shipped within the last 120 days."
	case QB:
		return "List the minimum cost supplier for each region for each item in the database."
	case QC:
		return "Retrieve the shipping priority and potential revenue of all pending orders."
	case QD:
		return "Count the number of late orders in each quarter of a given year."
	case QE:
		return "Report all items returned by customers sorted by the lost revenue."
	}
	return "unknown query"
}

// Run executes q over db on cluster c, returning the cost breakdown and the
// result digest.
func Run(c *Cluster, q Query, db *DB) (metrics.Breakdown, float64, error) {
	switch q {
	case QA:
		return runQA(c, db)
	case QB:
		return runQB(c, db)
	case QC:
		return runQC(c, db)
	case QD:
		return runQD(c, db)
	case QE:
		return runQE(c, db)
	}
	return metrics.Breakdown{}, 0, fmt.Errorf("batch: unknown query %q", q)
}

// field helpers --------------------------------------------------------------

func fInt(ex *Executor, row heap.Addr, k *klass.Klass, name string) int64 {
	return ex.RT.GetInt(row, k.FieldByName(name))
}

func fDouble(ex *Executor, row heap.Addr, k *klass.Klass, name string) float64 {
	return ex.RT.GetDouble(row, k.FieldByName(name))
}

// partials allocates one result map per task manager. Operator closures run
// for several task managers at once (dataflow.ShuffleSpec's concurrency
// contract), so each writes only the map at its own ex.ID and reads only maps
// finished before its exchange began; the driver merges them afterwards in
// executor-ID order.
func partials[K comparable, V any](c *Cluster) []map[K]V {
	out := make([]map[K]V, c.Workers())
	for i := range out {
		out[i] = make(map[K]V)
	}
	return out
}

// newAggRow builds an AggRow tuple; strings in tag are optional.
func newAggRow(ex *Executor, key int64, v1, v2, v3, v4 float64, count int64) (heap.Addr, error) {
	k, err := ex.RT.LoadClass(AggRowClass)
	if err != nil {
		return heap.Null, err
	}
	row, err := ex.RT.New(k)
	if err != nil {
		return heap.Null, err
	}
	ex.RT.SetLong(row, k.FieldByName("key"), key)
	ex.RT.SetDouble(row, k.FieldByName("v1"), v1)
	ex.RT.SetDouble(row, k.FieldByName("v2"), v2)
	ex.RT.SetDouble(row, k.FieldByName("v3"), v3)
	ex.RT.SetDouble(row, k.FieldByName("v4"), v4)
	ex.RT.SetLong(row, k.FieldByName("count"), count)
	return row, nil
}

// --- QA: pricing summary ------------------------------------------------------

func runQA(c *Cluster, db *DB) (metrics.Breakdown, float64, error) {
	const cutoff = datagen.TPCHDays - 120
	type agg struct {
		qty, price, disc, charge float64
		n                        int64
	}
	results := partials[int64, *agg](c)

	bd, err := c.Exchange(AggRowClass, []string{"key", "v1", "v2", "v3", "v4", "count"},
		func(ex *Executor, emit Emit) error {
			lk := ex.RT.MustLoad(LineItemClass)
			n := db.LineItem.Rows(ex)
			for i := 0; i < n; i++ {
				row := db.LineItem.Row(ex, i)
				if fInt(ex, row, lk, "shipdate") > cutoff {
					continue
				}
				flag := fInt(ex, row, lk, "returnflag")
				status := fInt(ex, row, lk, "linestatus")
				key := flag<<8 | status
				price := fDouble(ex, row, lk, "extendedprice")
				disc := fDouble(ex, row, lk, "discount")
				tax := fDouble(ex, row, lk, "tax")
				out, err := newAggRow(ex,
					key,
					fDouble(ex, row, lk, "quantity"),
					price,
					price*(1-disc),
					price*(1-disc)*(1+tax),
					1)
				if err != nil {
					return err
				}
				emit(int(key)%c.Workers(), out)
			}
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			ak := ex.RT.MustLoad(AggRowClass)
			for _, row := range rows {
				key := fInt(ex, row, ak, "key")
				a := results[ex.ID][key]
				if a == nil {
					a = &agg{}
					results[ex.ID][key] = a
				}
				a.qty += fDouble(ex, row, ak, "v1")
				a.price += fDouble(ex, row, ak, "v2")
				a.disc += fDouble(ex, row, ak, "v3")
				a.charge += fDouble(ex, row, ak, "v4")
				a.n += fInt(ex, row, ak, "count")
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	// Groups are hash-partitioned by key, so the per-executor maps are
	// disjoint.
	var digest float64
	for _, part := range results {
		for key, a := range part {
			digest += float64(key) + a.qty + a.price + a.disc + a.charge + float64(a.n)
		}
	}
	return bd, round2(digest), nil
}

// --- QB: minimum-cost supplier per part per region ----------------------------

func runQB(c *Cluster, db *DB) (metrics.Breakdown, float64, error) {
	var bd metrics.Breakdown

	// Dimension maps (nation → region) are replicated; build once per
	// executor.
	nationRegion := make([]map[int32]int32, c.Workers())
	setup, err := c.Compute(func(ex *Executor) error {
		nk := ex.RT.MustLoad(NationClass)
		m := make(map[int32]int32)
		db.Nation.Each(ex, func(row heap.Addr) {
			m[int32(fInt(ex, row, nk, "nationkey"))] = int32(fInt(ex, row, nk, "regionkey"))
		})
		nationRegion[ex.ID] = m
		return nil
	})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(setup)

	// Exchange 1: partsupp rows by partkey.
	type costRow struct {
		part, supp int32
		cost       float64
	}
	costsByPart := partials[int32, []costRow](c)
	x1, err := c.Exchange(PartSuppClass, nil,
		func(ex *Executor, emit Emit) error {
			db.PartSupp.Each(ex, func(row heap.Addr) {
				pk := ex.RT.MustLoad(PartSuppClass)
				part := int32(fInt(ex, row, pk, "partkey"))
				emit(int(part)%c.Workers(), row)
			})
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			pk := ex.RT.MustLoad(PartSuppClass)
			for _, row := range rows {
				cr := costRow{
					part: int32(fInt(ex, row, pk, "partkey")),
					supp: int32(fInt(ex, row, pk, "suppkey")),
					cost: fDouble(ex, row, pk, "supplycost"),
				}
				costsByPart[ex.ID][cr.part] = append(costsByPart[ex.ID][cr.part], cr)
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(x1)

	// Exchange 2: supplier rows by suppkey hash, so each worker can map
	// suppkey → region for the cost rows it owns. Suppliers are small;
	// replicate by emitting to every worker (broadcast join).
	suppRegion := partials[int32, int32](c)
	x2, err := c.Exchange(SupplierClass, []string{"suppkey", "nationkey"},
		func(ex *Executor, emit Emit) error {
			db.Supplier.Each(ex, func(row heap.Addr) {
				// Broadcasting the same row to every worker keeps it live
				// across emit calls that may allocate; re-derive the address
				// from a handle on each send.
				rh := ex.RT.Pin(row)
				for w := 0; w < c.Workers(); w++ {
					emit(w, rh.Addr())
				}
				rh.Release()
			})
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			sk := ex.RT.MustLoad(SupplierClass)
			for _, row := range rows {
				supp := int32(fInt(ex, row, sk, "suppkey"))
				nation := int32(fInt(ex, row, sk, "nationkey"))
				suppRegion[ex.ID][supp] = nationRegion[ex.ID][nation]
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(x2)

	// Local min-cost per (part, region).
	type prKey struct {
		part   int32
		region int32
	}
	mins := partials[prKey, float64](c)
	fin, err := c.Compute(func(ex *Executor) error {
		local := mins[ex.ID]
		for part, rows := range costsByPart[ex.ID] {
			for _, cr := range rows {
				region, ok := suppRegion[ex.ID][cr.supp]
				if !ok {
					continue
				}
				k := prKey{part, region}
				if cur, ok := local[k]; !ok || cr.cost < cur {
					local[k] = cr.cost
				}
			}
		}
		return nil
	})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(fin)

	// Cost rows are hash-partitioned by part, so the per-executor maps are
	// disjoint.
	var digest float64
	for _, part := range mins {
		for k, v := range part {
			digest += float64(k.part)*7 + float64(k.region)*13 + v
		}
	}
	return bd, round2(digest), nil
}

// --- QC: shipping priority of pending orders ----------------------------------

func runQC(c *Cluster, db *DB) (metrics.Breakdown, float64, error) {
	var bd metrics.Breakdown
	const date = datagen.TPCHDays / 2
	segment := "BUILDING"

	// Exchange 1: filtered customers by custkey (build side).
	buildingCust := partials[int32, bool](c)
	x1, err := c.Exchange(CustomerClass, []string{"custkey", "mktsegment"},
		func(ex *Executor, emit Emit) error {
			ck := ex.RT.MustLoad(CustomerClass)
			db.Customer.Each(ex, func(row heap.Addr) {
				seg := ex.RT.GetRef(row, ck.FieldByName("mktsegment"))
				if seg != heap.Null && ex.RT.GoString(seg) == segment {
					emit(int(fInt(ex, row, ck, "custkey"))%c.Workers(), row)
				}
			})
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			ck := ex.RT.MustLoad(CustomerClass)
			for _, row := range rows {
				buildingCust[ex.ID][int32(fInt(ex, row, ck, "custkey"))] = true
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(x1)

	// Exchange 2: pending orders by custkey (probe), re-keyed by orderkey.
	pendingOrders := partials[int32, int64](c) // orderkey → orderdate<<8|prio
	x2, err := c.Exchange(OrdersClass, []string{"orderkey", "custkey", "orderdate", "shippriority"},
		func(ex *Executor, emit Emit) error {
			ok := ex.RT.MustLoad(OrdersClass)
			db.Orders.Each(ex, func(row heap.Addr) {
				if fInt(ex, row, ok, "orderdate") < date {
					emit(int(fInt(ex, row, ok, "custkey"))%c.Workers(), row)
				}
			})
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			ok := ex.RT.MustLoad(OrdersClass)
			for _, row := range rows {
				cust := int32(fInt(ex, row, ok, "custkey"))
				if !buildingCust[ex.ID][cust] {
					continue
				}
				okey := int32(fInt(ex, row, ok, "orderkey"))
				pendingOrders[ex.ID][okey] = fInt(ex, row, ok, "orderdate")<<8 | fInt(ex, row, ok, "shippriority")
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(x2)

	// Qualifying orders must be visible on the workers that receive the
	// lineitem probe (partitioned by orderkey): the driver merges the
	// per-worker maps (broadcast of a small set), read-only from here on.
	start := time.Now()
	qualified := make(map[int32]int64)
	for _, part := range pendingOrders {
		for k, v := range part {
			qualified[k] = v
		}
	}
	bd.Compute += time.Since(start)

	// Exchange 3: late-shipped lineitems by orderkey; aggregate revenue.
	revenue := partials[int32, float64](c)
	x3, err := c.Exchange(LineItemClass, []string{"orderkey", "extendedprice", "discount", "shipdate"},
		func(ex *Executor, emit Emit) error {
			lk := ex.RT.MustLoad(LineItemClass)
			db.LineItem.Each(ex, func(row heap.Addr) {
				if fInt(ex, row, lk, "shipdate") > date {
					emit(int(fInt(ex, row, lk, "orderkey"))%c.Workers(), row)
				}
			})
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			lk := ex.RT.MustLoad(LineItemClass)
			for _, row := range rows {
				okey := int32(fInt(ex, row, lk, "orderkey"))
				if _, ok := qualified[okey]; !ok {
					continue
				}
				price := fDouble(ex, row, lk, "extendedprice")
				disc := fDouble(ex, row, lk, "discount")
				revenue[ex.ID][okey] += price * (1 - disc)
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(x3)

	// Top-10 revenue digest (orders are hash-partitioned by orderkey: the
	// per-executor maps are disjoint).
	var vals []float64
	for _, part := range revenue {
		for _, v := range part {
			vals = append(vals, v)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	var digest float64
	for i, v := range vals {
		if i >= 10 {
			break
		}
		digest += v
	}
	return bd, round2(digest), nil
}

// --- QD: late orders per quarter ----------------------------------------------

func runQD(c *Cluster, db *DB) (metrics.Breakdown, float64, error) {
	var bd metrics.Breakdown
	const yearStart = datagen.TPCHDays / 2
	const yearEnd = yearStart + 360

	// Exchange 1: late lineitems by orderkey (commit missed).
	lateOrders := partials[int32, bool](c)
	x1, err := c.Exchange(LineItemClass, []string{"orderkey", "commitdate", "receiptdate"},
		func(ex *Executor, emit Emit) error {
			lk := ex.RT.MustLoad(LineItemClass)
			db.LineItem.Each(ex, func(row heap.Addr) {
				if fInt(ex, row, lk, "receiptdate") > fInt(ex, row, lk, "commitdate") {
					emit(int(fInt(ex, row, lk, "orderkey"))%c.Workers(), row)
				}
			})
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			lk := ex.RT.MustLoad(LineItemClass)
			for _, row := range rows {
				lateOrders[ex.ID][int32(fInt(ex, row, lk, "orderkey"))] = true
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(x1)

	// Exchange 2: orders in the year window by orderkey; count late per
	// quarter.
	counts := make([][4]int64, c.Workers())
	x2, err := c.Exchange(OrdersClass, []string{"orderkey", "orderdate"},
		func(ex *Executor, emit Emit) error {
			ok := ex.RT.MustLoad(OrdersClass)
			db.Orders.Each(ex, func(row heap.Addr) {
				d := fInt(ex, row, ok, "orderdate")
				if d >= yearStart && d < yearEnd {
					emit(int(fInt(ex, row, ok, "orderkey"))%c.Workers(), row)
				}
			})
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			ok := ex.RT.MustLoad(OrdersClass)
			for _, row := range rows {
				okey := int32(fInt(ex, row, ok, "orderkey"))
				if !lateOrders[ex.ID][okey] {
					continue
				}
				q := (fInt(ex, row, ok, "orderdate") - yearStart) / 90
				if q > 3 {
					q = 3
				}
				counts[ex.ID][q]++
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(x2)

	var digest float64
	for q := 0; q < 4; q++ {
		var n int64
		for _, part := range counts {
			n += part[q]
		}
		digest += float64(n) * float64(q+1)
	}
	return bd, digest, nil
}

// --- QE: returned items by lost revenue ----------------------------------------

func runQE(c *Cluster, db *DB) (metrics.Breakdown, float64, error) {
	var bd metrics.Breakdown

	// Exchange 1: orders by orderkey (build: orderkey → custkey).
	orderCust := partials[int32, int32](c)
	x1, err := c.Exchange(OrdersClass, []string{"orderkey", "custkey"},
		func(ex *Executor, emit Emit) error {
			ok := ex.RT.MustLoad(OrdersClass)
			db.Orders.Each(ex, func(row heap.Addr) {
				emit(int(fInt(ex, row, ok, "orderkey"))%c.Workers(), row)
			})
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			ok := ex.RT.MustLoad(OrdersClass)
			for _, row := range rows {
				orderCust[ex.ID][int32(fInt(ex, row, ok, "orderkey"))] = int32(fInt(ex, row, ok, "custkey"))
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(x1)

	// Exchange 2: returned lineitems by orderkey; revenue lost per
	// customer.
	lostAt := partials[int32, float64](c)
	x2, err := c.Exchange(LineItemClass, []string{"orderkey", "extendedprice", "discount", "returnflag"},
		func(ex *Executor, emit Emit) error {
			lk := ex.RT.MustLoad(LineItemClass)
			db.LineItem.Each(ex, func(row heap.Addr) {
				if byte(fInt(ex, row, lk, "returnflag")) == 'R' {
					emit(int(fInt(ex, row, lk, "orderkey"))%c.Workers(), row)
				}
			})
			return nil
		},
		func(ex *Executor, rows []heap.Addr) error {
			lk := ex.RT.MustLoad(LineItemClass)
			for _, row := range rows {
				okey := int32(fInt(ex, row, lk, "orderkey"))
				cust, ok := orderCust[ex.ID][okey]
				if !ok {
					continue
				}
				price := fDouble(ex, row, lk, "extendedprice")
				disc := fDouble(ex, row, lk, "discount")
				lostAt[ex.ID][cust] += price * (1 - disc)
			}
			return nil
		})
	if err != nil {
		return bd, 0, err
	}
	bd.Add(x2)

	// A customer's orders land on several workers: sum the partials in
	// executor-ID order.
	lost := make(map[int32]float64)
	for _, part := range lostAt {
		for cust, v := range part {
			lost[cust] += v
		}
	}

	// Digest: total lost revenue plus top-20 weighting.
	type kv struct {
		c int32
		v float64
	}
	all := make([]kv, 0, len(lost))
	var total float64
	for cust, v := range lost {
		all = append(all, kv{cust, v})
		total += v
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].c < all[j].c
	})
	var digest float64
	for i := 0; i < len(all) && i < 20; i++ {
		digest += all[i].v * float64(i+1)
	}
	return bd, round2(total + digest), nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
