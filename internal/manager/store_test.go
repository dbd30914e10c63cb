package manager

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/version"
)

// seedDescriptor returns a valid single-component descriptor.
func seedDescriptor() *dfm.Descriptor {
	d := dfm.NewDescriptor()
	d.Components["c1"] = dfm.ComponentRef{
		ICO: naming.LOID{Domain: 1, Class: 9, Instance: 1}, CodeRef: "c1:1",
		Impl: registry.NativeImplType, CodeSize: 64, Revision: 1,
	}
	d.Entries = []dfm.EntryDesc{
		{Function: "f", Component: "c1", Exported: true, Enabled: true},
	}
	return d
}

func TestCreateRootOnce(t *testing.T) {
	s := NewStore()
	if !s.Root().IsZero() {
		t.Fatal("empty store has a root")
	}
	root, err := s.CreateRoot(seedDescriptor())
	if err != nil {
		t.Fatal(err)
	}
	if !root.Equal(version.Root) {
		t.Fatalf("root = %v", root)
	}
	if !s.Root().Equal(root) {
		t.Fatalf("Root() = %v", s.Root())
	}
	if _, err := s.CreateRoot(nil); !errors.Is(err, ErrRootExists) {
		t.Fatalf("err = %v, want ErrRootExists", err)
	}
	if st, _ := s.State(root); st != StateConfigurable {
		t.Fatalf("root state = %v", st)
	}
}

func TestDeriveAllocatesChildIDs(t *testing.T) {
	s := NewStore()
	root, _ := s.CreateRoot(seedDescriptor())
	c1, err := s.Derive(root)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Derive(root)
	if err != nil {
		t.Fatal(err)
	}
	if c1.String() != "1.1" || c2.String() != "1.2" {
		t.Fatalf("children = %v, %v", c1, c2)
	}
	grand, err := s.Derive(c1)
	if err != nil {
		t.Fatal(err)
	}
	if grand.String() != "1.1.1" {
		t.Fatalf("grandchild = %v", grand)
	}
	kids, err := s.Children(root)
	if err != nil || len(kids) != 2 {
		t.Fatalf("children = %v, %v", kids, err)
	}
	p, err := s.Parent(grand)
	if err != nil || !p.Equal(c1) {
		t.Fatalf("parent = %v, %v", p, err)
	}
	if p, _ := s.Parent(root); p != nil {
		t.Fatalf("root parent = %v", p)
	}
	if _, err := s.Derive(version.ID{9}); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeriveIsLogicalCopy(t *testing.T) {
	s := NewStore()
	root, _ := s.CreateRoot(seedDescriptor())
	child, _ := s.Derive(root)

	// Mutating the child leaves the parent untouched.
	err := s.Configure(child, func(d *dfm.Descriptor) error {
		d.Entries[0].Exported = false
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parentDesc, _ := s.Descriptor(root)
	if !parentDesc.Entries[0].Exported {
		t.Fatal("configuring child mutated parent descriptor")
	}
}

func TestConfigureValidatesAndRollsBack(t *testing.T) {
	s := NewStore()
	root, _ := s.CreateRoot(seedDescriptor())

	// A structurally invalid edit is rejected and rolled back.
	err := s.Configure(root, func(d *dfm.Descriptor) error {
		d.Entries = append(d.Entries, dfm.EntryDesc{Function: "g", Component: "ghost"})
		return nil
	})
	if !errors.Is(err, dfm.ErrInvalidDescriptor) {
		t.Fatalf("err = %v, want ErrInvalidDescriptor", err)
	}
	desc, _ := s.Descriptor(root)
	if len(desc.Entries) != 1 {
		t.Fatal("failed edit left descriptor mutated")
	}

	// A callback error is propagated and rolls back too.
	sentinel := errors.New("user error")
	if err := s.Configure(root, func(*dfm.Descriptor) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Configure(version.ID{4}, func(*dfm.Descriptor) error { return nil }); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestMarkInstantiableFreezes(t *testing.T) {
	s := NewStore()
	root, _ := s.CreateRoot(seedDescriptor())
	if s.IsInstantiable(root) {
		t.Fatal("configurable version reported instantiable")
	}
	if _, err := s.InstantiableDescriptor(root); !errors.Is(err, ErrVersionNotReady) {
		t.Fatalf("err = %v, want ErrVersionNotReady", err)
	}
	if err := s.MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	if !s.IsInstantiable(root) {
		t.Fatal("marked version not instantiable")
	}
	// Instantiable versions cannot be configured further.
	err := s.Configure(root, func(*dfm.Descriptor) error { return nil })
	if !errors.Is(err, ErrVersionFrozen) {
		t.Fatalf("err = %v, want ErrVersionFrozen", err)
	}
	// Idempotent.
	if err := s.MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstantiableDescriptor(root); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkInstantiable(version.ID{7}); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestMarkInstantiableEnforcesMandatoryRule(t *testing.T) {
	s := NewStore()
	desc := seedDescriptor()
	desc.Entries[0].Mandatory = true
	desc.Entries[0].Enabled = false
	root, _ := s.CreateRoot(desc)
	// "If the DFM descriptor contains a mandatory dynamic function with no
	// enabled implementation, the version will not be allowed to be marked
	// instantiable."
	if err := s.MarkInstantiable(root); !errors.Is(err, dfm.ErrNotInstantiable) {
		t.Fatalf("err = %v, want ErrNotInstantiable", err)
	}
}

func TestMarkInstantiableEnforcesDerivationRules(t *testing.T) {
	s := NewStore()
	desc := seedDescriptor()
	desc.Entries[0].Mandatory = true
	root, _ := s.CreateRoot(desc)
	if err := s.MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	child, _ := s.Derive(root)
	// Remove the mandatory function in the child.
	err := s.Configure(child, func(d *dfm.Descriptor) error {
		d.Entries = nil
		delete(d.Components, "c1")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkInstantiable(child); !errors.Is(err, dfm.ErrIllegalDerivation) {
		t.Fatalf("err = %v, want ErrIllegalDerivation", err)
	}
}

func TestVersionsSortedAndLen(t *testing.T) {
	s := NewStore()
	root, _ := s.CreateRoot(seedDescriptor())
	c1, _ := s.Derive(root)
	if _, err := s.Derive(root); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Derive(c1); err != nil {
		t.Fatal(err)
	}
	vs := s.Versions()
	if len(vs) != 4 || s.Len() != 4 {
		t.Fatalf("versions = %v", vs)
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Compare(vs[i]) >= 0 {
			t.Fatalf("versions not sorted: %v", vs)
		}
	}
}

func TestDescriptorReturnsCopy(t *testing.T) {
	s := NewStore()
	root, _ := s.CreateRoot(seedDescriptor())
	d1, _ := s.Descriptor(root)
	d1.Entries[0].Function = "mutated"
	d2, _ := s.Descriptor(root)
	if d2.Entries[0].Function != "f" {
		t.Fatal("Descriptor returned shared storage")
	}
	if _, err := s.Descriptor(version.ID{5}); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.State(version.ID{5}); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Children(version.ID{5}); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Parent(version.ID{5}); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestVersionStateString(t *testing.T) {
	if StateConfigurable.String() != "configurable" || StateInstantiable.String() != "instantiable" {
		t.Fatal("state strings wrong")
	}
	if VersionState(9).String() != "state(9)" {
		t.Fatal("unknown state string wrong")
	}
}

// TestAuthorStoresAllOrNothing holds Author to its contract: a refused
// version leaves the tree as it was, child numbers included.
func TestAuthorStoresAllOrNothing(t *testing.T) {
	s := NewStore()
	root, err := s.Author(nil, func(d *dfm.Descriptor) error {
		*d = *seedDescriptor()
		d.Entries[0].Mandatory, d.Entries[0].Permanent = true, true
		return nil
	})
	if err != nil || !root.Equal(version.Root) || !s.IsInstantiable(root) {
		t.Fatalf("root = %v, %v; instantiable %v", root, err, s.IsInstantiable(root))
	}
	versions, kids := s.Versions(), mustChildren(t, s, root)

	sentinel := errors.New("edit failed")
	for _, c := range []struct {
		name   string
		parent version.ID
		fn     func(*dfm.Descriptor) error
		want   error
	}{
		{"mandatory function left unimplemented", root, func(d *dfm.Descriptor) error {
			d.Entries[0].Permanent, d.Entries[0].Enabled = false, false
			return nil
		}, dfm.ErrNotInstantiable},
		{"permanent implementation displaced", root, func(d *dfm.Descriptor) error {
			d.Components["c2"] = dfm.ComponentRef{ICO: naming.LOID{Domain: 1, Class: 9, Instance: 2}, CodeRef: "c2:1",
				Impl: registry.NativeImplType, CodeSize: 64, Revision: 1}
			d.Entries[0].Permanent, d.Entries[0].Enabled = false, false
			d.Entries = append(d.Entries, dfm.EntryDesc{Function: "f", Component: "c2", Exported: true, Enabled: true, Mandatory: true})
			return nil
		}, dfm.ErrIllegalDerivation},
		{"structurally invalid", root, func(d *dfm.Descriptor) error {
			d.Entries = append(d.Entries, dfm.EntryDesc{Function: "g", Component: "ghost"})
			return nil
		}, dfm.ErrInvalidDescriptor},
		{"edit error", root, func(*dfm.Descriptor) error { return sentinel }, sentinel},
		{"unknown parent", version.ID{9}, func(*dfm.Descriptor) error { return nil }, ErrUnknownVersion},
		{"second root", nil, func(*dfm.Descriptor) error { return nil }, ErrRootExists},
	} {
		if id, err := s.Author(c.parent, c.fn); !errors.Is(err, c.want) {
			t.Errorf("%s: Author = %v, %v; want %v", c.name, id, err, c.want)
		}
		if got := s.Versions(); s.Len() != len(versions) || !reflect.DeepEqual(got, versions) {
			t.Errorf("%s: versions = %v, want %v", c.name, got, versions)
		}
		if got := mustChildren(t, s, root); !reflect.DeepEqual(got, kids) {
			t.Errorf("%s: children of the root = %v, want %v", c.name, got, kids)
		}
	}

	// The next version gets the id it would have got with no refusal.
	child, err := s.Author(root, func(d *dfm.Descriptor) error {
		d.Entries[0].Exported = false
		return nil
	})
	if err != nil || !child.Equal(v(1, 1)) || !s.IsInstantiable(child) {
		t.Fatalf("child = %v, %v; want instantiable 1.1", child, err)
	}
	if desc, _ := s.Descriptor(root); !desc.Entries[0].Exported {
		t.Fatal("authoring a child mutated its parent's descriptor")
	}
}

func mustChildren(t *testing.T, s *Store, v version.ID) []version.ID {
	t.Helper()
	kids, err := s.Children(v)
	if err != nil {
		t.Fatal(err)
	}
	return kids
}

// TestAuthorMatchesFourCalls builds the testbed's version tree (a root with
// three greetings, one child enabling each other greeting) and the demo's (a
// root pricing component, a child adding and enabling a second one) once
// with Author and once with CreateRoot, Derive, Configure and
// MarkInstantiable, and expects the same ids, descriptors and states.
func TestAuthorMatchesFourCalls(t *testing.T) {
	ref := func(id string) dfm.ComponentRef {
		return dfm.ComponentRef{ICO: naming.LOID{Domain: 1, Class: 8, Instance: uint64(len(id))}, CodeRef: id + ":1",
			Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	}
	greetings := []string{"en", "fr", "de"}
	greetRoot := dfm.NewDescriptor()
	for i, id := range greetings {
		greetRoot.Components[id] = ref(id)
		greetRoot.Entries = append(greetRoot.Entries, dfm.EntryDesc{Function: "greet", Component: id, Exported: true, Enabled: i == 0})
	}
	var greetChildren []func(*dfm.Descriptor) error
	for i := 1; i < len(greetings); i++ {
		greetChildren = append(greetChildren, func(d *dfm.Descriptor) error {
			for j, id := range greetings {
				d.Entry(dfm.EntryKey{Function: "greet", Component: id}).Enabled = j == i
			}
			return nil
		})
	}
	priceRoot := dfm.NewDescriptor()
	priceRoot.Components["pricing-v1"] = ref("pricing-v1")
	priceRoot.Entries = []dfm.EntryDesc{{Function: "price", Component: "pricing-v1", Exported: true, Enabled: true}}
	priceChild := func(d *dfm.Descriptor) error {
		d.Components["pricing-v2"] = ref("pricing-v2")
		d.Entry(dfm.EntryKey{Function: "price", Component: "pricing-v1"}).Enabled = false
		d.Entries = append(d.Entries, dfm.EntryDesc{Function: "price", Component: "pricing-v2", Exported: true, Enabled: true})
		return nil
	}

	for _, tree := range []struct {
		name     string
		root     *dfm.Descriptor
		children []func(*dfm.Descriptor) error
	}{
		{"testbed", greetRoot, greetChildren},
		{"demo", priceRoot, []func(*dfm.Descriptor) error{priceChild}},
	} {
		fourCalls, authored := NewStore(), NewStore()
		root, err := fourCalls.CreateRoot(tree.root)
		if err == nil {
			err = fourCalls.MarkInstantiable(root)
		}
		if err != nil {
			t.Fatalf("%s: %v", tree.name, err)
		}
		if _, err := authored.Author(nil, func(d *dfm.Descriptor) error { *d = *tree.root.Clone(); return nil }); err != nil {
			t.Fatalf("%s: %v", tree.name, err)
		}
		for _, edit := range tree.children {
			child, err := fourCalls.Derive(root)
			if err == nil {
				err = fourCalls.Configure(child, edit)
			}
			if err == nil {
				err = fourCalls.MarkInstantiable(child)
			}
			if err != nil {
				t.Fatalf("%s: %v", tree.name, err)
			}
			if _, err := authored.Author(root, edit); err != nil {
				t.Fatalf("%s: %v", tree.name, err)
			}
		}
		if got, want := authored.Versions(), fourCalls.Versions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Author made %v, the four calls %v", tree.name, got, want)
		}
		for _, id := range fourCalls.Versions() {
			want, _ := fourCalls.Descriptor(id)
			got, _ := authored.Descriptor(id)
			if !got.Equivalent(want) || !bytes.Equal(got.Encode(), want.Encode()) {
				t.Errorf("%s %s: Author stored %+v, the four calls %+v", tree.name, id, got, want)
			}
			if !authored.IsInstantiable(id) || !fourCalls.IsInstantiable(id) {
				t.Errorf("%s %s: not instantiable both ways", tree.name, id)
			}
		}
	}
}
