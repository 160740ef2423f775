package dataset

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pprl/internal/vgh"
)

// Schemas are stored on disk as a manifest plus one .vgh file per
// categorical attribute, so deployments are not tied to the built-in
// Adult schema. Manifest lines (order defines attribute order):
//
//	# comment
//	categorical <name> <vgh-file>
//	continuous  <name> <min> <max> <branch> <depth>
//
// VGH files use the indented format of vgh.Parse. Paths are relative to
// the manifest's directory.

// SchemaManifest is the conventional manifest file name used by
// SaveSchema.
const SchemaManifest = "schema.txt"

// LoadSchema reads a schema from a manifest file.
func LoadSchema(manifestPath string) (*Schema, error) {
	f, err := os.Open(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening schema manifest: %w", err)
	}
	defer f.Close()
	dir := filepath.Dir(manifestPath)

	var attrs []Attribute
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "categorical":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: %s:%d: categorical needs <name> <vgh-file>", manifestPath, line)
			}
			vf, err := os.Open(filepath.Join(dir, fields[2]))
			if err != nil {
				return nil, fmt.Errorf("dataset: %s:%d: %w", manifestPath, line, err)
			}
			h, err := vgh.Parse(fields[1], vf)
			vf.Close()
			if err != nil {
				return nil, fmt.Errorf("dataset: %s:%d: %w", manifestPath, line, err)
			}
			attrs = append(attrs, CatAttr(h))
		case "continuous":
			if len(fields) != 6 {
				return nil, fmt.Errorf("dataset: %s:%d: continuous needs <name> <min> <max> <branch> <depth>", manifestPath, line)
			}
			min, err1 := parseFinite(fields[2])
			max, err2 := parseFinite(fields[3])
			branch, err3 := strconv.Atoi(fields[4])
			depth, err4 := strconv.Atoi(fields[5])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fmt.Errorf("dataset: %s:%d: attribute %q: malformed continuous parameters (finite <min> <max>, integer <branch> <depth>)", manifestPath, line, fields[1])
			}
			ih, err := vgh.NewIntervalHierarchy(fields[1], min, max, branch, depth)
			if err != nil {
				return nil, fmt.Errorf("dataset: %s:%d: %w", manifestPath, line, err)
			}
			attrs = append(attrs, NumAttr(ih))
		default:
			return nil, fmt.Errorf("dataset: %s:%d: unknown attribute kind %q", manifestPath, line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading manifest: %w", err)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("dataset: manifest %s declares no attributes", manifestPath)
	}
	return NewSchema(attrs...)
}

// SaveSchema writes the schema as a manifest (SchemaManifest) plus one
// .vgh file per categorical attribute into dir, creating it if needed.
// The output round-trips through LoadSchema and gives deployments an
// editable starting point.
func SaveSchema(dir string, s *Schema) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: creating schema dir: %w", err)
	}
	var manifest strings.Builder
	manifest.WriteString("# pprl schema manifest: attribute order matters\n")
	for i := 0; i < s.Len(); i++ {
		a := s.Attr(i)
		if a.Kind == Categorical {
			file := a.Name + ".vgh"
			if err := os.WriteFile(filepath.Join(dir, file), []byte(a.Hierarchy.Dump()), 0o644); err != nil {
				return fmt.Errorf("dataset: writing %s: %w", file, err)
			}
			fmt.Fprintf(&manifest, "categorical %s %s\n", a.Name, file)
			continue
		}
		ih := a.Intervals
		fmt.Fprintf(&manifest, "continuous %s %s %s %d %d\n", a.Name,
			strconv.FormatFloat(ih.Min(), 'g', -1, 64),
			strconv.FormatFloat(ih.Max(), 'g', -1, 64),
			ih.Branch(), ih.Depth())
	}
	path := filepath.Join(dir, SchemaManifest)
	if err := os.WriteFile(path, []byte(manifest.String()), 0o644); err != nil {
		return fmt.Errorf("dataset: writing manifest: %w", err)
	}
	return nil
}
