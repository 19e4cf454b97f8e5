package batch

import (
	"fmt"

	"skyway/internal/datagen"
	"skyway/internal/gc"
	"skyway/internal/heap"
	"skyway/internal/klass"
	"skyway/internal/vm"
)

// Heap row classes for the TPC-H-shaped tables. Field order matches the
// generator structs; only the columns QA–QE touch are carried.
const (
	LineItemClass = "tpch.LineItem"
	OrdersClass   = "tpch.Orders"
	CustomerClass = "tpch.Customer"
	SupplierClass = "tpch.Supplier"
	PartClass     = "tpch.Part"
	PartSuppClass = "tpch.PartSupp"
	NationClass   = "tpch.Nation"
	RegionClass   = "tpch.Region"
	// AggRowClass is the generic keyed aggregate row queries exchange.
	AggRowClass = "tpch.AggRow"
)

// TPCHClasses defines the row schemas on cp (idempotent).
func TPCHClasses(cp *klass.Path) {
	vm.EnsureBuiltins(cp)
	if cp.Lookup(LineItemClass) != nil {
		return
	}
	cp.MustDefine(
		&klass.ClassDef{Name: LineItemClass, Fields: []klass.FieldDef{
			{Name: "orderkey", Kind: klass.Int32},
			{Name: "partkey", Kind: klass.Int32},
			{Name: "suppkey", Kind: klass.Int32},
			{Name: "quantity", Kind: klass.Float64},
			{Name: "extendedprice", Kind: klass.Float64},
			{Name: "discount", Kind: klass.Float64},
			{Name: "tax", Kind: klass.Float64},
			{Name: "returnflag", Kind: klass.Int8},
			{Name: "linestatus", Kind: klass.Int8},
			{Name: "shipdate", Kind: klass.Int32},
			{Name: "commitdate", Kind: klass.Int32},
			{Name: "receiptdate", Kind: klass.Int32},
		}},
		&klass.ClassDef{Name: OrdersClass, Fields: []klass.FieldDef{
			{Name: "orderkey", Kind: klass.Int32},
			{Name: "custkey", Kind: klass.Int32},
			{Name: "orderdate", Kind: klass.Int32},
			{Name: "shippriority", Kind: klass.Int32},
			{Name: "totalprice", Kind: klass.Float64},
		}},
		&klass.ClassDef{Name: CustomerClass, Fields: []klass.FieldDef{
			{Name: "custkey", Kind: klass.Int32},
			{Name: "nationkey", Kind: klass.Int32},
			{Name: "name", Kind: klass.Ref, Class: vm.StringClass},
			{Name: "mktsegment", Kind: klass.Ref, Class: vm.StringClass},
			{Name: "acctbal", Kind: klass.Float64},
		}},
		&klass.ClassDef{Name: SupplierClass, Fields: []klass.FieldDef{
			{Name: "suppkey", Kind: klass.Int32},
			{Name: "nationkey", Kind: klass.Int32},
			{Name: "name", Kind: klass.Ref, Class: vm.StringClass},
			{Name: "acctbal", Kind: klass.Float64},
		}},
		&klass.ClassDef{Name: PartClass, Fields: []klass.FieldDef{
			{Name: "partkey", Kind: klass.Int32},
			{Name: "size", Kind: klass.Int32},
			{Name: "name", Kind: klass.Ref, Class: vm.StringClass},
			{Name: "type", Kind: klass.Ref, Class: vm.StringClass},
		}},
		&klass.ClassDef{Name: PartSuppClass, Fields: []klass.FieldDef{
			{Name: "partkey", Kind: klass.Int32},
			{Name: "suppkey", Kind: klass.Int32},
			{Name: "supplycost", Kind: klass.Float64},
		}},
		&klass.ClassDef{Name: NationClass, Fields: []klass.FieldDef{
			{Name: "nationkey", Kind: klass.Int32},
			{Name: "regionkey", Kind: klass.Int32},
			{Name: "name", Kind: klass.Ref, Class: vm.StringClass},
		}},
		&klass.ClassDef{Name: RegionClass, Fields: []klass.FieldDef{
			{Name: "regionkey", Kind: klass.Int32},
			{Name: "name", Kind: klass.Ref, Class: vm.StringClass},
		}},
		&klass.ClassDef{Name: AggRowClass, Fields: []klass.FieldDef{
			{Name: "key", Kind: klass.Int64},
			{Name: "v1", Kind: klass.Float64},
			{Name: "v2", Kind: klass.Float64},
			{Name: "v3", Kind: klass.Float64},
			{Name: "v4", Kind: klass.Float64},
			{Name: "count", Kind: klass.Int64},
			{Name: "tag", Kind: klass.Ref, Class: vm.StringClass},
		}},
	)
}

// Table is one table's rows partitioned across executors, held in pinned
// heap ArrayLists.
type Table struct {
	Class string
	pins  []*gc.Handle
}

// Rows returns the row count on executor ex.
func (t *Table) Rows(ex *Executor) int { return ex.RT.ListLen(t.pins[ex.ID].Addr()) }

// Row returns row i on executor ex.
func (t *Table) Row(ex *Executor, i int) heap.Addr {
	return ex.RT.ListGet(t.pins[ex.ID].Addr(), i)
}

// Each iterates executor ex's partition.
func (t *Table) Each(ex *Executor, fn func(row heap.Addr)) {
	n := t.Rows(ex)
	for i := 0; i < n; i++ {
		fn(t.Row(ex, i))
	}
}

// Free releases the table's pins.
func (t *Table) Free() {
	for _, p := range t.pins {
		p.Release()
	}
}

// DB is the loaded database.
type DB struct {
	LineItem, Orders, Customer, Supplier *Table
	Part, PartSupp, Nation, Region       *Table
}

// Free releases every table.
func (db *DB) Free() {
	for _, t := range []*Table{db.LineItem, db.Orders, db.Customer, db.Supplier, db.Part, db.PartSupp, db.Nation, db.Region} {
		t.Free()
	}
}

// Load materializes the generated database as heap rows, round-robin
// partitioned across executors; small dimension tables (nation, region)
// are replicated to every executor, Flink-broadcast style.
func Load(c *Cluster, db *datagen.TPCH) (*DB, error) {
	out := &DB{}
	var err error

	newTable := func(class string) (*Table, error) {
		t := &Table{Class: class}
		for _, ex := range c.Execs {
			l, err := ex.RT.NewArrayList(1024)
			if err != nil {
				return nil, err
			}
			t.pins = append(t.pins, ex.RT.Pin(l))
		}
		return t, nil
	}

	type fieldSetter func(ex *Executor, k *klass.Klass, rh *gc.Handle) error
	load := func(class string, n int, replicate bool, set func(i int) fieldSetter) (*Table, error) {
		t, err := newTable(class)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			targets := []int{i % c.Workers()}
			if replicate {
				targets = targets[:0]
				for w := 0; w < c.Workers(); w++ {
					targets = append(targets, w)
				}
			}
			for _, w := range targets {
				ex := c.Execs[w]
				k, err := ex.RT.LoadClass(class)
				if err != nil {
					return nil, err
				}
				row, err := ex.RT.New(k)
				if err != nil {
					return nil, err
				}
				rh := ex.RT.Pin(row)
				if err := set(i)(ex, k, rh); err != nil {
					rh.Release()
					return nil, err
				}
				if err := ex.RT.ListAdd(t.pins[ex.ID].Addr(), rh.Addr()); err != nil {
					rh.Release()
					return nil, err
				}
				rh.Release()
			}
		}
		return t, nil
	}

	setStr := func(ex *Executor, k *klass.Klass, rh *gc.Handle, field, val string) error {
		s, err := ex.RT.NewString(val)
		if err != nil {
			return err
		}
		// Read the row through its handle: allocating the string may
		// have triggered a collection that moved the row.
		ex.RT.SetRef(rh.Addr(), k.FieldByName(field), s)
		return nil
	}

	out.LineItem, err = load(LineItemClass, len(db.LineItems), false, func(i int) fieldSetter {
		return func(ex *Executor, k *klass.Klass, rh *gc.Handle) error {
			row := rh.Addr()
			li := &db.LineItems[i]
			ex.RT.SetInt(row, k.FieldByName("orderkey"), int64(li.OrderKey))
			ex.RT.SetInt(row, k.FieldByName("partkey"), int64(li.PartKey))
			ex.RT.SetInt(row, k.FieldByName("suppkey"), int64(li.SuppKey))
			ex.RT.SetDouble(row, k.FieldByName("quantity"), li.Quantity)
			ex.RT.SetDouble(row, k.FieldByName("extendedprice"), li.ExtendedPrice)
			ex.RT.SetDouble(row, k.FieldByName("discount"), li.Discount)
			ex.RT.SetDouble(row, k.FieldByName("tax"), li.Tax)
			ex.RT.SetInt(row, k.FieldByName("returnflag"), int64(li.ReturnFlag))
			ex.RT.SetInt(row, k.FieldByName("linestatus"), int64(li.LineStatus))
			ex.RT.SetInt(row, k.FieldByName("shipdate"), int64(li.ShipDate))
			ex.RT.SetInt(row, k.FieldByName("commitdate"), int64(li.CommitDate))
			ex.RT.SetInt(row, k.FieldByName("receiptdate"), int64(li.ReceiptDate))
			return nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("batch: loading lineitem: %w", err)
	}

	out.Orders, err = load(OrdersClass, len(db.Orders), false, func(i int) fieldSetter {
		return func(ex *Executor, k *klass.Klass, rh *gc.Handle) error {
			row := rh.Addr()
			o := &db.Orders[i]
			ex.RT.SetInt(row, k.FieldByName("orderkey"), int64(o.OrderKey))
			ex.RT.SetInt(row, k.FieldByName("custkey"), int64(o.CustKey))
			ex.RT.SetInt(row, k.FieldByName("orderdate"), int64(o.OrderDate))
			ex.RT.SetInt(row, k.FieldByName("shippriority"), int64(o.ShipPriority))
			ex.RT.SetDouble(row, k.FieldByName("totalprice"), o.TotalPrice)
			return nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("batch: loading orders: %w", err)
	}

	out.Customer, err = load(CustomerClass, len(db.Customers), false, func(i int) fieldSetter {
		return func(ex *Executor, k *klass.Klass, rh *gc.Handle) error {
			row := rh.Addr()
			cu := &db.Customers[i]
			ex.RT.SetInt(row, k.FieldByName("custkey"), int64(cu.CustKey))
			ex.RT.SetInt(row, k.FieldByName("nationkey"), int64(cu.NationKey))
			ex.RT.SetDouble(row, k.FieldByName("acctbal"), cu.AcctBal)
			if err := setStr(ex, k, rh, "name", cu.Name); err != nil {
				return err
			}
			return setStr(ex, k, rh, "mktsegment", cu.MktSegment)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("batch: loading customer: %w", err)
	}

	out.Supplier, err = load(SupplierClass, len(db.Suppliers), false, func(i int) fieldSetter {
		return func(ex *Executor, k *klass.Klass, rh *gc.Handle) error {
			row := rh.Addr()
			s := &db.Suppliers[i]
			ex.RT.SetInt(row, k.FieldByName("suppkey"), int64(s.SuppKey))
			ex.RT.SetInt(row, k.FieldByName("nationkey"), int64(s.NationKey))
			ex.RT.SetDouble(row, k.FieldByName("acctbal"), s.AcctBal)
			return setStr(ex, k, rh, "name", s.Name)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("batch: loading supplier: %w", err)
	}

	out.Part, err = load(PartClass, len(db.Parts), false, func(i int) fieldSetter {
		return func(ex *Executor, k *klass.Klass, rh *gc.Handle) error {
			row := rh.Addr()
			p := &db.Parts[i]
			ex.RT.SetInt(row, k.FieldByName("partkey"), int64(p.PartKey))
			ex.RT.SetInt(row, k.FieldByName("size"), int64(p.Size))
			if err := setStr(ex, k, rh, "name", p.Name); err != nil {
				return err
			}
			return setStr(ex, k, rh, "type", p.Type)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("batch: loading part: %w", err)
	}

	out.PartSupp, err = load(PartSuppClass, len(db.PartSupps), false, func(i int) fieldSetter {
		return func(ex *Executor, k *klass.Klass, rh *gc.Handle) error {
			row := rh.Addr()
			ps := &db.PartSupps[i]
			ex.RT.SetInt(row, k.FieldByName("partkey"), int64(ps.PartKey))
			ex.RT.SetInt(row, k.FieldByName("suppkey"), int64(ps.SuppKey))
			ex.RT.SetDouble(row, k.FieldByName("supplycost"), ps.SupplyCost)
			return nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("batch: loading partsupp: %w", err)
	}

	out.Nation, err = load(NationClass, len(db.Nations), true, func(i int) fieldSetter {
		return func(ex *Executor, k *klass.Klass, rh *gc.Handle) error {
			row := rh.Addr()
			n := &db.Nations[i]
			ex.RT.SetInt(row, k.FieldByName("nationkey"), int64(n.NationKey))
			ex.RT.SetInt(row, k.FieldByName("regionkey"), int64(n.RegionKey))
			return setStr(ex, k, rh, "name", n.Name)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("batch: loading nation: %w", err)
	}

	out.Region, err = load(RegionClass, len(db.Regions), true, func(i int) fieldSetter {
		return func(ex *Executor, k *klass.Klass, rh *gc.Handle) error {
			row := rh.Addr()
			r := &db.Regions[i]
			ex.RT.SetInt(row, k.FieldByName("regionkey"), int64(r.RegionKey))
			return setStr(ex, k, rh, "name", r.Name)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("batch: loading region: %w", err)
	}
	return out, nil
}
