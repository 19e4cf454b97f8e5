package batch

import (
	"math"
	"sort"
	"testing"

	"skyway/internal/dataflow"
	"skyway/internal/datagen"
)

// Reference implementations of QA–QE computed directly over the generator's
// Go structs — no heap, no exchanges, no serializers. The engine must match
// these digests exactly, which pins down join/filter/aggregate semantics
// independently of the data-transfer plumbing.

func refQA(db *datagen.TPCH) float64 {
	const cutoff = datagen.TPCHDays - 120
	type agg struct {
		qty, price, disc, charge float64
		n                        int64
	}
	res := make(map[int64]*agg)
	for i := range db.LineItems {
		li := &db.LineItems[i]
		if int64(li.ShipDate) > cutoff {
			continue
		}
		key := int64(li.ReturnFlag)<<8 | int64(li.LineStatus)
		a := res[key]
		if a == nil {
			a = &agg{}
			res[key] = a
		}
		a.qty += li.Quantity
		a.price += li.ExtendedPrice
		a.disc += li.ExtendedPrice * (1 - li.Discount)
		a.charge += li.ExtendedPrice * (1 - li.Discount) * (1 + li.Tax)
		a.n++
	}
	var digest float64
	for key, a := range res {
		digest += float64(key) + a.qty + a.price + a.disc + a.charge + float64(a.n)
	}
	return math.Round(digest*100) / 100
}

func refQD(db *datagen.TPCH) float64 {
	const yearStart = datagen.TPCHDays / 2
	const yearEnd = yearStart + 360
	late := make(map[int32]bool)
	for i := range db.LineItems {
		li := &db.LineItems[i]
		if li.ReceiptDate > li.CommitDate {
			late[li.OrderKey] = true
		}
	}
	var counts [4]int64
	for i := range db.Orders {
		o := &db.Orders[i]
		if o.OrderDate < yearStart || o.OrderDate >= yearEnd || !late[o.OrderKey] {
			continue
		}
		q := (int64(o.OrderDate) - yearStart) / 90
		if q > 3 {
			q = 3
		}
		counts[q]++
	}
	var digest float64
	for q, n := range counts {
		digest += float64(n) * float64(q+1)
	}
	return digest
}

func refQE(db *datagen.TPCH) float64 {
	orderCust := make(map[int32]int32, len(db.Orders))
	for i := range db.Orders {
		orderCust[db.Orders[i].OrderKey] = db.Orders[i].CustKey
	}
	lost := make(map[int32]float64)
	for i := range db.LineItems {
		li := &db.LineItems[i]
		if li.ReturnFlag != 'R' {
			continue
		}
		cust, ok := orderCust[li.OrderKey]
		if !ok {
			continue
		}
		lost[cust] += li.ExtendedPrice * (1 - li.Discount)
	}
	type kv struct {
		c int32
		v float64
	}
	all := make([]kv, 0, len(lost))
	var total float64
	for c, v := range lost {
		all = append(all, kv{c, v})
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
	return math.Round((total+digest)*100) / 100
}

func TestQueriesMatchReference(t *testing.T) {
	gen := datagen.GenTPCH(0.3, 99)
	c := newTestCluster(t, dataflow.Config{}, "flink-builtin")
	db, err := Load(c, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Free()

	cases := []struct {
		q   Query
		ref func(*datagen.TPCH) float64
	}{
		{QA, refQA},
		{QD, refQD},
		{QE, refQE},
	}
	for _, tc := range cases {
		_, got, err := Run(c, tc.q, db)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		want := tc.ref(gen)
		if got != want {
			t.Errorf("%s digest = %v, reference = %v", tc.q, got, want)
		}
	}
}

func TestQBAndQCNonTrivial(t *testing.T) {
	// QB and QC involve multi-way joins whose reference versions would
	// duplicate the engine; instead pin down non-triviality invariants.
	gen := datagen.GenTPCH(0.3, 99)
	c := newTestCluster(t, dataflow.Config{}, "flink-builtin")
	db, err := Load(c, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Free()

	bdB, digestB, err := Run(c, QB, db)
	if err != nil {
		t.Fatal(err)
	}
	if digestB <= 0 {
		t.Errorf("QB digest %v", digestB)
	}
	if bdB.Records == 0 {
		t.Error("QB exchanged nothing")
	}
	bdC, digestC, err := Run(c, QC, db)
	if err != nil {
		t.Fatal(err)
	}
	if digestC <= 0 {
		t.Errorf("QC digest %v (no pending BUILDING orders found)", digestC)
	}
	if bdC.Records == 0 {
		t.Error("QC exchanged nothing")
	}
}

func TestRunUnknownQuery(t *testing.T) {
	c := newTestCluster(t, dataflow.Config{}, "flink-builtin")
	db, err := Load(c, datagen.GenTPCH(0.05, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Free()
	if _, _, err := Run(c, Query("QZ"), db); err == nil {
		t.Error("unknown query did not error")
	}
}
