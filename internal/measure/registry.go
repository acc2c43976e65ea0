package measure

import (
	"fmt"
	"sort"
)

// registry maps measure names to implementations. Populated at init;
// Register allows tests and extensions to add entries before queries
// run.
var registry = map[string]Measure{}

// Register adds m to the registry, replacing any previous measure with
// the same name. Not safe for concurrent use with running queries —
// register during initialization.
func Register(m Measure) {
	registry[m.Name()] = m
}

// Get resolves a measure name. The error lists every registered
// measure, so a typo in a request surfaces the full menu instead of a
// silent default.
func Get(name string) (Measure, error) {
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("measure: unknown measure %q (registered: %s)", name, nameList())
	}
	return m, nil
}

// Names lists the registered measure names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func nameList() string {
	names := Names()
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// Info describes one registered measure for listings (the /v1/measures
// endpoint).
type Info struct {
	Name   string      `json:"name"`
	Doc    string      `json:"doc"`
	Cost   string      `json:"cost"`
	Params []ParamSpec `json:"params,omitempty"`
}

// Infos describes every registered measure, sorted by name.
func Infos() []Info {
	out := make([]Info, 0, len(registry))
	for _, name := range Names() {
		m := registry[name]
		out = append(out, Info{Name: m.Name(), Doc: m.Doc(), Cost: m.Cost().String(), Params: m.Params()})
	}
	return out
}
