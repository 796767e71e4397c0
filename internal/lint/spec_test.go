package lint_test

import (
	"go/types"
	"strings"
	"testing"

	"ruru/internal/lint"
)

// TestRepoSpecResolves pins the repo spec to the real tree: every lock
// class must name an existing mutex field and every mustcheck or Acquires
// entry an existing function, so renaming a lock or an API without updating
// spec.go fails here instead of silently disabling the analyzer.
func TestRepoSpecResolves(t *testing.T) {
	pkgs, err := lint.LoadPackages(".", []string{
		"ruru/internal/tsdb",
		"ruru/internal/seglog",
		"ruru/internal/fed",
		"ruru/internal/mq",
		"ruru/internal/ruru",
	})
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*lint.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}

	lockSpec := lint.RepoLockOrder()
	ids := map[string]bool{}
	for _, c := range lockSpec.Classes {
		ids[c.ID] = true
		i := strings.LastIndex(c.Type, ".")
		if i < 0 {
			t.Errorf("class %s: malformed type %q", c.ID, c.Type)
			continue
		}
		pkgPath, typeName := c.Type[:i], c.Type[i+1:]
		p := byPath[pkgPath]
		if p == nil {
			t.Errorf("class %s: package %s not loaded", c.ID, pkgPath)
			continue
		}
		obj := p.Types.Scope().Lookup(typeName)
		if obj == nil {
			t.Errorf("class %s: type %s not found in %s", c.ID, typeName, pkgPath)
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Errorf("class %s: %s is not a struct", c.ID, c.Type)
			continue
		}
		var field *types.Var
		for j := 0; j < st.NumFields(); j++ {
			if st.Field(j).Name() == c.Field {
				field = st.Field(j)
				break
			}
		}
		if field == nil {
			t.Errorf("class %s: %s has no field %s", c.ID, c.Type, c.Field)
			continue
		}
		ft := field.Type().String()
		if ft != "sync.Mutex" && ft != "sync.RWMutex" {
			t.Errorf("class %s: field %s.%s has type %s, not a sync mutex", c.ID, c.Type, c.Field, ft)
		}
	}
	for _, e := range lockSpec.Order {
		if !ids[e[0]] || !ids[e[1]] {
			t.Errorf("order edge %s → %s references an undeclared class", e[0], e[1])
		}
	}

	known := map[string]bool{}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				known[obj.FullName()] = true
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						known[named.Method(i).FullName()] = true
					}
				}
			}
		}
	}
	for fn, classes := range lockSpec.Acquires {
		if !known[fn] {
			t.Errorf("lock-order spec says %s acquires locks, but it does not resolve in the tree", fn)
		}
		for _, c := range classes {
			if !ids[c] {
				t.Errorf("lock-order spec: %s acquires undeclared class %s", fn, c)
			}
		}
	}
	for _, fn := range lint.RepoMustCheck().Funcs {
		if !known[fn] {
			t.Errorf("mustcheck spec names %s, which does not resolve in the tree", fn)
		}
	}
}
