#!/usr/bin/env python3
"""List every lib/ module that only tests use, every `val` in
lib/**/*.mli that has no caller outside its own module, and every
optional argument of such a `val` that no caller passes.

A module counts as used when some .ml file under lib/ (other than its
own), bin/, bench/ or examples/ names it qualified (`Module.`), opens or
includes it, or aliases it (`module X = ...Module`); test/ does not
count, so a module kept alive by its tests alone is reported.
A value counts as called when some .ml file under lib/, bin/, bench/,
examples/ or test/ -- other than the module's own .ml -- names it
qualified (`Module.name`, or through a `module X = Module` alias), or
opens the module (`open Module`, `Module.( ... )`, `include Module`)
and names it bare.  A path that goes on past the module names one of
its submodules: `module Ibuf = Batch.Ibuf` aliases `Batch.Ibuf`, so
`Ibuf.create` calls the submodule's `create`, not `Batch.create`.  An optional argument `?label:` of a `val` counts as
passed when one of those files other than the module's own .ml
contains `~label` or `?label`.  Comments are ignored.  The check is
textual, so it can miss a dead export or option whose name coincides
with a live one.

Usage: python3 scripts/dead_exports.py [REPO_ROOT]
Prints one `path: Module` line per module only tests use, one
`path: Module.name` line per uncalled export and one
`path: Module.name ?label` line per option nobody passes; exits 1 if any.
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
        # a path ending in a submodule (`module Ibuf = Batch.Ibuf`,
        # `open Batch.Ibuf`) aliases or opens that submodule, not Batch
        for q in quals:
            names += re.findall(r"module\s+(\w+)\s*=\s*(?:\w+\.)*%s\b(?!\.)" % q, text)
        if any(re.search(r"\b%s\.%s\b" % (q, re.escape(name)), text) for q in names):
            return True
        opened = any(
            re.search(
                r"open!?\s+(\w+\.)*%s\b(?!\.)|\b%s\.\(|include\s+(\w+\.)*%s\b(?!\.)"
                % (q, q, q),
                text,
            )
            for q in quals
        )
        if opened and bare.search(text):
            return True
    return False


def passed(label, own):
    flag = re.compile(r"[~?]%s\b" % re.escape(label))
    return any(flag.search(text) for path, text in sources.items() if path != own)


def used(module, own):
    ref = re.compile(
        r"(?<![\w'])%s\s*\.|(?:open!?|include|module\s+\w+\s*=)\s+(?:\w+\.)*%s\b"
        % (module, module)
    )
    return any(
        ref.search(text)
        for path, text in sources.items()
        if path != own and not path.startswith(os.path.join(root, "test"))
    )


# Enumerate is the exhaustive reference test_optimizer checks DP/DPP against.
test_only_allowed = {"Enumerate"}

dead = []
for ml in (p for p in ml_files("lib") if p.endswith(".ml")):
    module = os.path.basename(ml)[:-3].capitalize()
    if module not in test_only_allowed and not used(module, ml):
        dead.append("%s: %s" % (ml, module))

for mli in (p for p in ml_files("lib") if p.endswith(".mli")):
    module = os.path.basename(mli)[:-4].capitalize()
    submodule = None
    text = re.sub(r"\(\*.*?\*\)", " ", open(mli).read(), flags=re.S)
    # each item runs from its keyword to the next item's keyword
    items = re.split(r"\n(?=\s*(?:val|type|module|end|exception|external|include|open)\b)", text)
    for item in items:
        m = re.match(r"\s*module\s+(\w+)\s*:\s*sig", item)
        if m:
            submodule = m.group(1)
        elif submodule and re.match(r"\s*end\b", item):
            submodule = None
        v = re.match(r"\s*val\s+([a-z_][\w']*)", item)
        if v:
            quals = [module] + ([submodule] if submodule else [])
            name = "%s.%s" % (module, v.group(1))
            if not called(v.group(1), quals, mli[:-1]):
                dead.append("%s: %s" % (mli, name))
            for label in re.findall(r"\?(\w+)\s*:", item):
                if not passed(label, mli[:-1]):
                    dead.append("%s: %s ?%s" % (mli, name, label))

if dead:
    print("\n".join(dead))
    sys.exit(1)
