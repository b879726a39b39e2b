package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"roload/internal/schema"
)

// spanLog keeps every span document of a traced run in memory and
// writes them out once, when the run ends: the benchmark's own spans
// around each layer call, and on the fleets each request's client
// document merged with the server's span document by run id.
type spanLog struct {
	mu   sync.Mutex
	docs []schema.TraceDoc
}

func (l *spanLog) add(doc schema.TraceDoc) {
	l.mu.Lock()
	l.docs = append(l.docs, doc)
	l.mu.Unlock()
}

// durations returns the duration in milliseconds of every span named
// name, over all documents.
func (l *spanLog) durations(name string) []float64 {
	return l.durationsWhere(name, func(schema.Span) bool { return true })
}

// durationsWhere is durations restricted to the spans keep accepts.
func (l *spanLog) durationsWhere(name string, keep func(schema.Span) bool) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, d := range l.docs {
		for _, s := range d.Spans {
			if s.Name == name && keep(s) {
				out = append(out, float64(s.DurUS)/1e3)
			}
		}
	}
	return out
}

// selfTimes returns, for every span named name, its self time in
// milliseconds: its duration minus the part of it that its child spans
// cover.
func (l *spanLog) selfTimes(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, d := range l.docs {
		for _, s := range d.Spans {
			if s.Name == name {
				out = append(out, float64(selfUS(d, s))/1e3)
			}
		}
	}
	return out
}

// selfUS is s's duration minus the union of its children's intervals,
// clipped to s.
func selfUS(d schema.TraceDoc, s schema.Span) int64 {
	type iv struct{ lo, hi int64 }
	var kids []iv
	end := s.StartUS + s.DurUS
	for _, c := range d.Spans {
		if c.Parent != s.ID {
			continue
		}
		lo, hi := max(c.StartUS, s.StartUS), min(c.StartUS+c.DurUS, end)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered, curLo, curHi := int64(0), int64(0), int64(-1)
	for _, k := range kids {
		if k.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = k.lo, k.hi
		} else if k.hi > curHi {
			curHi = k.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return s.DurUS - covered
}

// write stores every document as one JSON array under dir.
func (l *spanLog) write(dir string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(filepath.Join(dir, "spans.json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.docs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
