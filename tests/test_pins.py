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
        "alone owns the record loop, the id rule, the blocks and the rebuild of a failing "
        "block one record at a time; a reader gives it only its keys and one block builder."
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


def test_only_the_binary_op_helper_and_matmul_sum_gradients_down_to_an_operand():
    tree = ast.parse((PACKAGE / "numerics.py").read_text(encoding="utf-8"))
    callers = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else f"line {top.lineno}"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_unbroadcast":
                callers.add(owner)
    assert callers == {"_binary", "matmul", "_right_grad"}, (
        f"_unbroadcast is called from {', '.join(sorted(callers)) or 'nowhere'}. The rule that an "
        "operand's gradient is formed only if it requires one and is summed down to its own shape "
        "is stated once, in coleaf.numerics._binary, which builds add, sub, mul and div from a "
        "forward and two gradient formulas; only matmul and its _right_grad sum on their own."
    )


def test_payloads_are_checked_a_block_at_a_time_and_not_by_the_record_parsers_hook():
    tree = ast.parse((PACKAGE / "fileio.py").read_text(encoding="utf-8"))
    callers = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else f"line {top.lineno}"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_checked_payload":
                callers.add(owner)
    parser = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_record_parser")
    hooks = {
        kw.value.id
        for node in ast.walk(parser)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "object_hook"
    }
    hook = next(n for n in ast.walk(parser) if isinstance(n, ast.FunctionDef) and n.name in hooks)
    touched = {n.id for n in ast.walk(hook) if isinstance(n, ast.Name)} | {
        n.value for n in ast.walk(hook) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    assert callers == {"stack_payloads", "_build"} and not touched & {
        "_checked_payload", "_from_payload", "stack_payloads", "_PAYLOAD_DTYPES", "dtype", "shape"
    }, (
        f"_checked_payload is called from {', '.join(sorted(callers)) or 'nowhere'}, and the record "
        f"parser's hook {hook.name} touches {sorted(touched)}. The hook only tags payload objects and "
        "counts them; stack_payloads checks a block's payloads of one field once, the first in full "
        "and the rest by equality, and _build checks each record's payloads before it rebuilds a "
        "failed block one record at a time, so the error has the words of a line read in full."
    )


def test_the_forwards_read_stacked_parameters_and_only_param_layout_names_a_member():
    from coleaf.branches import param_layout

    source = (PACKAGE / "branches.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    stacks = [
        f"branches.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "stack"
    ]
    layout = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "param_layout")
    # each member's own word, as written out ("attn_audio") and as a template ("attn_{")
    words = {
        spelled
        for _, members, _ in param_layout(1, 1)
        for member in members
        for spelled in (member.split(".")[-1], re.sub(r"(audio|visual)$", "{", member.split(".")[-1]))
    }
    spellings = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if any(word in line for word in words)
        and not (path.name == "branches.py" and layout.lineno <= n <= layout.end_lineno)
    ]
    assert stacks == [] and spellings == [], (
        f"branches.py stacks at {', '.join(stacks) or 'no line'} and a member name is spelled at "
        f"{', '.join(spellings) or 'no line'}. Each stacked group of coleaf.branches.param_layout "
        "is stored as the stack the forwards use, so no forward stacks parameters, and "
        "param_layout alone names the problems of a group, in their order."
    )
