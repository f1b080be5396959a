package kg

import "fmt"

// Dict is a bidirectional mapping between names and dense integer IDs. A
// Graph holds one Dict for entities and one for relations; train, validation
// and test splits of the same dataset share Dicts so that IDs agree across
// splits (the protocol used by LibKGE and required by the filtered ranking
// protocol).
//
// The zero value is not usable; construct with NewDict.
type Dict struct {
	names []string
	ids   map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]int32)}
}

// Len reports the number of distinct names interned so far.
func (d *Dict) Len() int { return len(d.names) }

// Intern returns the ID for name, assigning the next dense ID if the name has
// not been seen before.
func (d *Dict) Intern(name string) int32 {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := int32(len(d.names))
	d.names = append(d.names, name)
	d.ids[name] = id
	return id
}

// Lookup returns the ID for name and whether it is present, without interning.
func (d *Dict) Lookup(name string) (int32, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name returns the name for id. It panics if id is out of range, which
// indicates a programming error (IDs are only ever produced by Intern).
func (d *Dict) Name(id int32) string {
	if id < 0 || int(id) >= len(d.names) {
		panic(fmt.Sprintf("kg: dict id %d out of range [0,%d)", id, len(d.names)))
	}
	return d.names[id]
}

// Names returns a copy of all interned names in ID order.
func (d *Dict) Names() []string {
	out := make([]string, len(d.names))
	copy(out, d.names)
	return out
}
