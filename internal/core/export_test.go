package core

import (
	"fmt"
	"sort"
)

// StructOf builds a struct value from a field map, fields in sorted
// order; compiled code resolves its layouts at link time instead.
func StructOf(typeName string, fields map[string]Value) StructVal {
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)
	l := LayoutOf(typeName, names)
	v := make([]Value, len(names))
	for i, n := range names {
		v[i] = fields[n]
	}
	return StructVal{L: l, V: v}
}

// Truthy is the boxed twin of truthyR, the register VM's condition
// test: the AST oracle's.
func Truthy(v Value) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case int64:
		return x != 0, nil
	case float64:
		return x != 0, nil
	case nil:
		return false, nil
	}
	return false, fmt.Errorf("core: %s is not usable as a condition", TypeName(v))
}

// Keys returns the key texts in sorted order, the list map_keys would
// hand out. The list is the caller's to read, not to write.
func (m *MapVal) Keys() List {
	switch {
	case len(m.slots) == 0:
		return nil
	case m.keys != nil && (!m.keysStale || m.sameKeys()):
		return m.keys.(List)
	}
	return m.sortedKeys()
}

// Get reads the entry whose key text is key.
func (m *MapVal) Get(key string) (Value, bool) {
	if i := m.lookup(key); i >= 0 {
		return m.slots[i].val.box(), true
	}
	return nil, false
}
