package engine

import (
	"reflect"
	"testing"

	"turbobp/internal/device"
)

// TestBulkTablesArePointerFree: the tables with one element per SSD frame,
// per database page or per stored page hold no pointer, so the garbage
// collector never scans them, however large the database. A pointer added
// to any of these element types fails here, naming the field that holds it.
func TestBulkTablesArePointerFree(t *testing.T) {
	field := func(typ reflect.Type, path ...string) reflect.Type {
		t.Helper()
		for _, name := range path {
			for typ.Kind() == reflect.Pointer {
				typ = typ.Elem()
			}
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Fatalf("%v has no field %s", typ, name)
			}
			typ = f.Type
		}
		return typ
	}
	eng, ssdDev := reflect.TypeOf(Engine{}), reflect.TypeOf(device.SSD{})
	for _, c := range []struct {
		table string
		elem  reflect.Type
	}{
		{"SSD frame table", field(eng, "mgr", "frames").Elem()},
		{"SSD directory", field(eng, "mgr", "dir").Elem()},
		{"pool directory", field(eng, "pool", "dir").Elem()},
		{"page-store index", field(ssdDev, "store", "slot").Elem()},
		{"page-store size-class chunk", field(field(ssdDev, "store", "classes").Elem(), "chunks").Elem().Elem()},
		{"page-store free list", field(field(ssdDev, "store", "classes").Elem(), "free").Elem()},
	} {
		if where := pointerIn(c.elem); where != "" {
			t.Errorf("%s element %v holds a pointer: %s", c.table, c.elem, where)
		}
	}
}

// pointerIn names the part of typ that holds a pointer the garbage collector
// would follow, or returns "" if there is none.
func pointerIn(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if typ.Len() == 0 {
			return ""
		}
		if where := pointerIn(typ.Elem()); where != "" {
			return "[i]." + where
		}
		return ""
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if where := pointerIn(f.Type); where != "" {
				return f.Name + " " + where
			}
		}
		return ""
	}
	return typ.String()
}
