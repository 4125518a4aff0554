"""What native.py mirrors of thomas.c, read from the C source.

ctypes trusts native.py's copy of the kernel's struct layout and codes:
a field out of order in _Frame would have C read and write the wrong
memory, and a shifted code would name the wrong failure, both silently.
Each test parses thomas.c and checks one of those copies (or the numpy
twin's copy of the predictor's bracket constants) against it, or the
functions it exports against those native.load declares.
"""

import ctypes
import re

from asianfb._kernels import native, pure

import _oracles

# the C types of struct layer_frame's fields and the ctypes type _Frame gives each
KINDS = {"long": ctypes.c_long, "double": ctypes.c_double}


def source():
    """thomas.c without its comments."""
    return re.sub(r"/\*.*?\*/", " ", native.SOURCE.read_text(), flags=re.S)


def struct_fields(name):
    """(field, ctypes type) of each field of the C struct ``name``, in order:
    c_void_p for a pointer, else the ctypes type of its base type."""
    body = re.search(r"struct %s \{(.*?)\};" % name, source(), flags=re.S).group(1)
    fields = []
    for declaration in filter(str.strip, body.split(";")):
        first, *rest = declaration.split(",")
        base, first_name = re.fullmatch(r"\s*(?:const\s+)?([\w ]+?)\s*(\**\s*\w+)\s*",
                                        first).groups()
        for declarator in (first_name, *rest):
            pointer, field = re.fullmatch(r"\s*(\**)\s*(\w+)\s*", declarator).groups()
            fields.append((field, ctypes.c_void_p if pointer else KINDS[base]))
    return fields


def enum_names(first):
    """The names of the C enum whose first name is ``first``, in order."""
    body = re.search(r"enum \{\s*(%s\b[^}]*)\}" % first, source()).group(1)
    return [name.strip() for name in body.split(",")]


def defines(prefix):
    """{name: value} of the C integer macros whose names start with ``prefix``."""
    return {name: int(value) for name, value in
            re.findall(r"#define (%s\w*)\s+\(?(-?\d+)\)?" % prefix, source())}


def number_defines(prefix):
    """{name: value} of the C macros whose names start with ``prefix`` and
    that stand for a number, an int or a float as the C literal is."""
    return {name: float(value) if "." in value else int(value) for name, value in
            re.findall(r"#define (%s\w*)\s+(-?[\d.]+)\s" % prefix, source())}


def exported_functions():
    """The functions thomas.c defines at the start of a line without
    ``static``, or a macro that stands for it (ROW_STEP); attributes such
    as noinline are read past."""
    text = re.sub(r"__attribute__\s*\(\([^()]*\)\)", " ", source())
    statics = {"static", *re.findall(r"#define (\w+) static\b", text)}
    return sorted(name for specifiers, name in
                  re.findall(r"^([A-Za-z_][\w \t*]*?)\b(\w+)\(", text, flags=re.M)
                  if not statics & set(specifiers.split()))


def python_names(prefix):
    """{name: value} of native's module constants whose names start with ``prefix``."""
    return {name: getattr(native, name) for name in dir(native) if name.startswith(prefix)}


def test_frame_struct_matches_layer_frame():
    """_Frame has struct layer_frame's 36 fields, in its order, each of the
    ctypes type of its C type: one pair of limits (tol, max_iter), for the
    one engine a frame marches, and the layer count that march publishes."""
    fields = struct_fields("layer_frame")
    assert len(fields) == 36 and fields[0] == ("n", ctypes.c_long)
    assert native._Frame._fields_ == fields
    assert ("tol", ctypes.c_double) in fields and ("max_iter", ctypes.c_long) in fields
    assert ("count", ctypes.c_long) in fields
    assert not [name for name, _ in fields if name.startswith("root_")]


def test_out_slots_match_the_out_enum():
    """OUT_FIELDS names thomas.c's out[] slots, OUT_ and each name in
    capitals, in the enum's order, and OUT_SLOTS counts them: the one list
    of the slots' names in Python, with no index constant beside it."""
    names = enum_names("OUT_ITERATIONS")
    assert names == [f"OUT_{name.upper()}" for name in native.OUT_FIELDS] + ["OUT_SLOTS"]
    assert python_names("OUT_") == {"OUT_FIELDS": native.OUT_FIELDS,
                                    "OUT_SLOTS": len(native.OUT_FIELDS)}


def test_layer_status_codes_match():
    codes = defines("LAYER_")
    assert codes["LAYER_OK"] == 0 and len(codes) == 8
    assert python_names("LAYER_") == codes


def test_march_engines_match_their_enum():
    """MARCH_ENGINES maps each engine to its MARCH_* code."""
    engines = enum_names("MARCH_NEWTON")
    assert native.MARCH_ENGINES == {name.removeprefix("MARCH_").lower(): k
                                    for k, name in enumerate(engines)}


def test_arrays_name_the_array_codes():
    """ARRAYS, with which native names the array of a non-finite entry
    from thomas's return code or a failed layer's out[OUT_FAILURE], names
    thomas.c's ARRAY_* codes in their order, the order of
    pure.check_finite."""
    names = tuple(name.removeprefix("ARRAY_").lower() for name in enum_names("ARRAY_LOWER"))
    assert native.ARRAYS == names == ("lower", "diag", "upper", "rhs")


def test_bracket_scan_constants_match():
    """The numpy twin's predictor scans the bracket that thomas.c's
    pc_predictor scans."""
    assert number_defines("BRACKET_") == {
        "BRACKET_SCAN": _oracles.BRACKET_SCAN, "BRACKET_FACTOR": _oracles.BRACKET_FACTOR,
        "BRACKET_EXPANSIONS": _oracles.BRACKET_EXPANSIONS}


def test_a_failure_needs_no_stage_code_and_no_numpy_check():
    """A failed layer's row is its whole failure record: thomas.c has no
    stage codes (CALL_*) and no status for the predictor's missing root,
    which is a fallback layer, and native, which reads the record, does
    not import the pure loop's module."""
    assert not re.search(r"\bCALL_", source())
    assert "LAYER_NO_BRACKET" not in source()
    assert pure not in vars(native).values()


def test_exports_are_the_functions_native_declares():
    """thomas.c exports exactly the five functions that native.load
    declares (argtypes and restype), and no layer function: march is the
    only way into them."""
    exported = exported_functions()
    assert exported == sorted(["thomas", "march", "published", "fixed9_rows", "fixed9_surface"])
    native.load()
    declared = sorted(name for name, function in vars(native._kernel).items()
                      if isinstance(function, ctypes._CFuncPtr))
    assert declared == exported
    for name in declared:
        function = getattr(native._kernel, name)
        assert function.argtypes and function.restype is ctypes.c_long, name
    for name in ("newton_layer", "pc_predictor", "pc_corrector"):
        assert not hasattr(native._kernel, name), name


def test_constants_match():
    assert defines("FIXED9_CELL") == {"FIXED9_CELL": native.FIXED9_CELL}
    assert defines("THOMAS_NON_FINITE") == {"THOMAS_NON_FINITE": native.NON_FINITE}
