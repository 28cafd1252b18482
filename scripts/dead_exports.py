#!/usr/bin/env python3
"""List every `val` in lib/**/*.mli that has no caller outside its own module.

A value counts as called when some .ml file under lib/, bin/, bench/,
examples/ or test/ -- other than the module's own .ml -- names it
qualified (`Module.name`, or through a `module X = Module` alias), or
opens the module (`open Module`, `Module.( ... )`, `include Module`)
and names it bare.  Comments are ignored.  The check is textual, so it
can miss a dead export whose name coincides with a live one.

Usage: python3 scripts/dead_exports.py [REPO_ROOT]
Prints one `path: Module.name` line per uncalled export; exits 1 if any.
"""
import os
import re
import sys

root = sys.argv[1] if len(sys.argv) > 1 else "."


def ml_files(top):
    for dirpath, _, files in os.walk(os.path.join(root, top)):
        if "_build" in dirpath:
            continue
        for f in sorted(files):
            yield os.path.join(dirpath, f)


sources = {
    p: re.sub(r"\(\*.*?\*\)", " ", open(p).read(), flags=re.S)
    for top in ("lib", "bin", "bench", "examples", "test")
    for p in ml_files(top)
    if p.endswith(".ml")
}


def called(name, quals, own):
    bare = re.compile(r"(?<![.\w])%s\b" % re.escape(name))
    for path, text in sources.items():
        if path == own:
            continue
        names = list(quals)
        for q in quals:
            names += re.findall(r"module\s+(\w+)\s*=\s*(?:\w+\.)*%s\b" % q, text)
        if any(re.search(r"\b%s\.%s\b" % (q, re.escape(name)), text) for q in names):
            return True
        opened = any(
            re.search(r"open!?\s+(\w+\.)*%s\b|\b%s\.\(|include\s+(\w+\.)*%s\b" % (q, q, q), text)
            for q in quals
        )
        if opened and bare.search(text):
            return True
    return False


dead = []
for mli in (p for p in ml_files("lib") if p.endswith(".mli")):
    module = os.path.basename(mli)[:-4].capitalize()
    submodule = None
    for line in open(mli):
        m = re.match(r"\s*module\s+(\w+)\s*:\s*sig", line)
        if m:
            submodule = m.group(1)
        elif submodule and re.match(r"\s*end\b", line):
            submodule = None
        v = re.match(r"\s*val\s+([a-z_][\w']*)", line)
        if v:
            quals = [module] + ([submodule] if submodule else [])
            if not called(v.group(1), quals, mli[:-1]):
                dead.append("%s: %s.%s" % (mli, module, v.group(1)))

if dead:
    print("\n".join(dead))
    sys.exit(1)
