"""Files that must not change, pinned by content hash, and layout rules that keep one owner."""
import ast
import hashlib
import re
from pathlib import Path

ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
ACCEPTANCE_SHA256 = "eb6caf29894191d636849a8830b31ff3af921b86b0c8e0d89a912fe95bc37835"
PACKAGE = Path(__file__).parents[1] / "src" / "coleaf"
# bottom first: each module may import only the modules before it
LAYERS = ("errors", "records", "numerics", "fileio", "metrics", "synthdata", "branches", "losses",
          "harness", "cli")


def test_acceptance_suite_is_byte_identical():
    digest = hashlib.sha256(ACCEPTANCE.read_bytes()).hexdigest()
    assert digest == ACCEPTANCE_SHA256, (
        f"{ACCEPTANCE.name} changed (sha256 {digest}). ROADMAP.md, under 'Keep these three "
        "things fixed', requires tests/test_acceptance.py to stay byte-identical: its nine "
        "criteria are the quality bar, so restore the file rather than update this hash."
    )


def test_only_fileio_parses_json():
    parse = re.compile(r"\bjson\.loads?\b|\bfrom json import\b")
    parsers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "fileio.py" and parse.search(path.read_text(encoding="utf-8"))
    )
    assert parsers == [], (
        f"{', '.join(parsers)} parse JSON themselves. Data files are read through "
        "coleaf.fileio (json_lines and parse_record), so that every record is checked "
        "and reported at path:line in one place."
    )


def test_only_fileio_encodes_json():
    encode = re.compile(r"\bjson\.dumps?\b|\bJSONEncoder\b|\bencode_basestring")
    encoders = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "fileio.py" and encode.search(path.read_text(encoding="utf-8"))
    )
    assert encoders == [], (
        f"{', '.join(encoders)} encode JSON themselves. Data lines are written by "
        "coleaf.fileio.write_json_lines alone, which formats each line by its known layout "
        "with the bytes the JSON encoder would give, and other JSON by write_json."
    )


def test_only_fileio_imports_base64():
    imports_base64 = re.compile(
        r"^\s*(from\s+(base64|binascii)\s+import|import\s[^#\n]*\b(base64|binascii)\b)", re.M
    )
    encoders = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "fileio.py"
        and imports_base64.search(path.read_text(encoding="utf-8"))
    )
    assert encoders == [], (
        f"{', '.join(encoders)} import base64 or binascii. Float arrays in data files are payload "
        "objects that coleaf.fileio alone encodes and decodes, so that every reader gets "
        "them checked and as float64 arrays."
    )


def test_one_site_decodes_base64():
    decode = re.compile(r"\ba2b_base64\(")
    sites = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if decode.search(line)
    ]
    b64decode = sorted(
        path.name for path in PACKAGE.glob("*.py") if "b64decode" in path.read_text(encoding="utf-8")
    )
    assert len(sites) == 1 and b64decode == [], (
        f"base64 is decoded at {', '.join(sites) or 'no site'} with a2b_base64 and in "
        f"{', '.join(b64decode) or 'no file'} with b64decode. coleaf.fileio.stack_payloads alone "
        "decodes payload base64, for a block and for a single record alike, so that every "
        "reader checks base64, byte count and shape by one rule."
    )


def test_only_synthdata_states_the_corpus_shape_rule():
    owners = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "the corpus says" in path.read_text(encoding="utf-8")
    )
    assert owners == ["synthdata.py"], (
        f"{', '.join(owners)} state the corpus-shape rule. Every video of a corpus shares "
        "T, C and D, and coleaf.synthdata.corpus_shape alone checks it, for save_corpus, "
        "train, predict and ablate alike."
    )


def test_only_fileio_reads_data_file_records():
    reader_parts = re.compile(r"record_parser|decode_deferred|check_video_id")
    readers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "fileio.py" and reader_parts.search(path.read_text(encoding="utf-8"))
    )
    assert readers == [], (
        f"{', '.join(readers)} read data-file records themselves. coleaf.fileio.read_records "
        "alone owns the record loop, the id rule, the blocks and the record-by-record "
        "fallback; a reader gives it only its keys and two builders."
    )


def test_only_records_imports_numbers():
    imports_numbers = re.compile(r"^\s*(from\s+numbers\s+import|import\s[^#\n]*\bnumbers\b)", re.M)
    owners = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if imports_numbers.search(path.read_text(encoding="utf-8"))
    )
    assert owners == ["records.py"], (
        f"{', '.join(owners)} import numbers. A setting's type is stated once, by "
        "coleaf.records.check_fields, which checks every bool, int and float field of "
        "TrainConfig and CorpusSpec against the annotation next to the field."
    )


def _coleaf_imports(path):
    """`(line, module, name)` for each import of a coleaf module in the file `path`, at any
    depth of its tree: `name` is the name taken from the module, or None when the module
    itself is imported (`from . import numerics`, `import coleaf.errors`)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[1], None)
                      for a in node.names if a.name.startswith("coleaf.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "coleaf" and not module.startswith("coleaf."):
                    continue
                module = module[len("coleaf."):]
            if module:
                found += [(node.lineno, module.split(".")[0], a.name) for a in node.names]
            else:
                found += [(node.lineno, a.name, None) for a in node.names]
    return found


def test_modules_import_only_the_layers_below_them():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    faults = [f"{name}.py has no place in LAYERS" for name in modules if name not in LAYERS]
    faults += [f"LAYERS lists {name}, which has no module" for name in LAYERS if name not in modules]
    rank = {name: LAYERS.index(name) if name in LAYERS else -1 for name in modules}
    for module in modules:
        for line, imported, name in _coleaf_imports(PACKAGE / f"{module}.py"):
            where = f"{module}.py:{line}"
            if imported not in rank or rank[imported] >= rank[module]:
                faults.append(f"{where} imports {imported}, which is not below {module}")
            if name is not None and name.startswith("_"):
                faults.append(f"{where} imports the private name {imported}.{name}")
    assert faults == [], (
        "coleaf's import graph is one layer order, " + " < ".join(LAYERS) + ", and no module "
        "reaches into another's private names:\n" + "\n".join(faults)
    )
