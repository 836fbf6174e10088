"""Characterization of the command server's per-table catalog: one
scripted ``CommandServer.dispatch`` stream through every command that
reads or writes per-table state (DDL, first load and update loads,
vector/reference/geo/typed columns, declared, offline and alternate
index columns, lexicon deletes, truncation, renames, removals, the
suggest and TSV-expander registries, table/column listings and dump),
each ``(rc, body, err)`` pinned in ``goldens/server_catalog_stream.json``.

Regenerate deliberately with GOLDEN_REGEN=1 (then review the diff).
"""

import json
import os

import pytest

from groonga_ray.conformance import parse_script
from groonga_ray.server import CommandServer

GOLDEN = os.path.join(
    os.path.dirname(__file__), "goldens", "server_catalog_stream.json"
)

SYNONYMS = "# synonyms\nray\tray OR cluster\nindex\tindex\tposting\n"

# ``@copy_path`` and ``@register_tsv`` stand for the two commands whose
# arguments name a file under the test's temporary directory.
SCRIPT = r"""
table_create Tags TABLE_PAT_KEY ShortText
table_create Docs TABLE_HASH_KEY ShortText
column_create Docs title COLUMN_SCALAR ShortText
column_create Docs body COLUMN_SCALAR Text
column_create Docs tags COLUMN_VECTOR Tags
column_create Docs labels COLUMN_VECTOR ShortText
column_create Docs score COLUMN_SCALAR Int16
column_create Docs stamp COLUMN_SCALAR Time
table_create Terms TABLE_PAT_KEY ShortText --default_tokenizer TokenBigram --normalizer NormalizerAuto
column_create Terms docs_title COLUMN_INDEX|WITH_POSITION Docs title
column_create Tags docs_tags COLUMN_INDEX Docs tags
table_create Terms2 TABLE_PAT_KEY ShortText --default_tokenizer TokenDelimit --normalizer NormalizerAuto
column_create Terms2 docs_title2 COLUMN_INDEX|WITH_POSITION Docs title
table_list
column_list Docs
column_list Terms
select Docs --query ray --match_columns title
select Terms
load --table Docs --columns _key,bogus
[["a","x"]]
load --table Docs
[
{"_key":"a","title":"ray data engine","body":"fulltext over parquet","tags":["db","search"],"labels":"red blue","score":3,"stamp":1.5},
{"_key":"b","title":"inverted index","body":"posting lists","tags":"search","labels":["green"],"score":"7"},
{"_key":"c","title":"parquet tables","body":"columnar ray batches","score":true}
]
select Docs --output_columns _id,_key,title,tags,labels,score,stamp --sortby _id
select Docs --query ray --match_columns title --output_columns _key,_score
select Docs --query ray --match_columns Terms.docs_title --output_columns _key
select Docs --query ra --match_columns Terms.docs_title --output_columns _key
select Docs --query ra --match_columns Terms2.docs_title2 --output_columns _key
select Docs --filter 'score > 2' --output_columns _key,score --sortby -score
select Docs --drilldown tags --output_columns _key
select Docs --drilldown body
select Tags --sortby _key
select Terms --limit 5 --sortby _key
load --table Docs --columns _key,nosuch
[["d","x"]]
load --table Docs
[
{"_key":"b","title":"inverted index update","labels":"yellow"},
{"_key":"d","title":"ray cluster","tags":["db"],"labels":[]}
]
select Docs --output_columns _id,_key,title,tags,labels,score --sortby _id
select Tags --output_columns _key,docs_tags
delete Docs --key c
select Docs --output_columns _key --sortby _id
table_tokenize Terms "ray data" --mode GET
table_create Plain TABLE_NO_KEY
column_create Plain a COLUMN_SCALAR ShortText
column_create Plain b COLUMN_SCALAR ShortText
column_create Plain n COLUMN_SCALAR UInt32
load --table Plain
[
{"a":"alpha beta","b":"gamma","n":1},
{"a":"delta","b":"alpha","n":2}
]
select Plain --query alpha --match_columns a --output_columns _id,a
select Plain --query alpha --match_columns 'a || b' --output_columns _id
select Plain --filter 'n >= 1' --output_columns _id,n
load --table Plain
[
{"_id":2,"b":"omega"},
{"a":"epsilon","n":9}
]
select Plain --output_columns _id,a,b,n --sortby _id
select Plain --query alpha --match_columns 'a || b' --output_columns _id
table_create Lex TABLE_PAT_KEY ShortText --default_tokenizer TokenBigram
column_create Lex plain_a COLUMN_INDEX|WITH_POSITION Plain a
select Plain --query alpha --match_columns 'a || b' --output_columns _id
select Plain --query alph --match_columns Lex.plain_a --output_columns _id,a
column_remove Lex plain_a
column_list Lex
table_create Points TABLE_HASH_KEY ShortText
column_create Points loc COLUMN_SCALAR WGS84GeoPoint
column_create Points name COLUMN_SCALAR ShortText
table_create Geo TABLE_PAT_KEY WGS84GeoPoint
column_create Geo points_loc COLUMN_INDEX Points loc
select Points --filter 'geo_in_rectangle(loc, "35.73360x139.7394", "35.62614x139.7714")'
load --table Points
[
{"_key":"tokyo","loc":"35.6813x139.7660","name":"Tokyo"},
{"_key":"shinjuku","loc":"35.6896x139.7006","name":"Shinjuku"},
{"_key":"ikebukuro","loc":"35.7295x139.7109","name":"Ikebukuro"}
]
select Points --filter 'geo_in_rectangle(loc, "35.73360x139.7394", "35.62614x139.7714")' --output_columns _key
load --table Points
[
{"_key":"akihabara","loc":"35.6984x139.7731","name":"Akihabara"},
{"_key":"tokyo","name":"Tokyo Station"}
]
select Points --filter 'geo_in_rectangle(loc, "35.73360x139.7394", "35.62614x139.7780")' --output_columns _key,name --sortby _key
column_remove Geo points_loc
select Points --output_columns _key,loc --sortby _key
table_create Norm TABLE_HASH_KEY ShortText --normalizer NormalizerAuto
column_create Norm label COLUMN_SCALAR ShortText
load --table Norm
[
{"_key":"Alpha","label":"first"},
{"_key":"BETA","label":"second"}
]
select Norm --output_columns _key,label --sortby _key
select Docs --filter 'title == Norm["ALPHA"].label' --output_columns _key
select Docs --filter 'Norm["beta"].label == "second"' --output_columns _key --sortby _id
table_create Words TABLE_PAT_KEY ShortText --default_tokenizer TokenBigram --normalizer NormalizerAuto --token_filters TokenFilterStopWord
column_create Words is_stop_word COLUMN_SCALAR Bool
table_create Memos TABLE_NO_KEY
column_create Memos content COLUMN_SCALAR Text
column_create Words memos_content COLUMN_INDEX|WITH_POSITION Memos content
load --table Memos
[
{"content":"the quick fox"},
{"content":"a lazy the dog"}
]
select Memos --query the --match_columns content --output_columns _id
load --table Words
[
{"_key":"the","is_stop_word":true}
]
select Memos --query the --match_columns content --output_columns _id
select Memos --query fox --match_columns content --output_columns _id
table_tokenize Words "the fox" --mode GET
select Words --output_columns _key,is_stop_word --sortby _key
table_create Vocab TABLE_PAT_KEY ShortText --default_tokenizer TokenDelimit --normalizer NormalizerAuto
column_create Vocab memos_content COLUMN_INDEX|WITH_POSITION Memos content
select Vocab --output_columns _id,_key --sortby _key --limit -1
select Memos --query lazy --match_columns content --output_columns _id
delete Vocab --key lazy
select Vocab --output_columns _id,_key --sortby _key --limit -1
select Memos --query lazy --match_columns content --output_columns _id
select Vocab --output_columns _key,memos_content --sortby _key --limit -1
truncate Vocab.memos_content
select Vocab --output_columns _key,memos_content --sortby _key --limit -1
table_create Self TABLE_PAT_KEY ShortText
column_create Self own COLUMN_SCALAR ShortText
column_create Self own_index COLUMN_INDEX Self own
load --table Self
[
{"_key":"k1","own":"x"},
{"_key":"k2","own":"x"},
{"_key":"k3","own":"y"}
]
select Self --output_columns '*' --sortby _key --cache no
truncate Self.own_index
select Self --output_columns '*' --sortby _key --cache no
truncate Plain.b
select Plain --output_columns _id,a,b --sortby _id
truncate Plain
select Plain
truncate Norm
select Norm
load --table Norm
[
{"_key":"Gamma","label":"third"}
]
select Norm --output_columns _id,_key,label
table_create Cats TABLE_HASH_KEY UInt32
column_create Cats label COLUMN_SCALAR ShortText
load --table Cats
[
{"_key":1,"label":"one"},
{"_key":2,"label":"two"}
]
table_create Items TABLE_HASH_KEY ShortText
column_create Items cat COLUMN_SCALAR Cats
column_create Items note COLUMN_SCALAR ShortText
load --table Items
[
{"_key":"i1","cat":1,"note":"x"},
{"_key":"i2","note":"y"}
]
select Items --output_columns _key,cat --sortby _key
select Items --output_columns _key,cat.label --sortby _key
load --table Cats
[
{"_key":1,"label":"uno"}
]
select Items --output_columns _key,cat.label --sortby _key
select Items --filter 'cat.label == "uno"' --output_columns _key
load --table Items
[
{"_key":"i3","note":"z"}
]
select Items --output_columns _id,_key,cat,note --sortby _id
column_remove Items note
column_list Items
select Items --output_columns _key,cat --sortby _key
column_rename Docs body content
select Docs --output_columns _key,content --sortby _id
column_list Docs
table_create Staging TABLE_HASH_KEY ShortText
column_create Staging note COLUMN_SCALAR ShortText
load --table Staging
[
{"_key":"s1","note":"hello"}
]
table_rename Staging Renamed
select Renamed --output_columns _key,note
select Staging
table_list
column_remove Renamed note
column_list Renamed
table_remove Renamed
select Renamed
table_remove Tags
table_create Drop TABLE_HASH_KEY ShortText
column_create Drop v COLUMN_SCALAR ShortText
table_rename Drop Dropped
column_list Dropped
table_remove Dropped
table_list
suggest_create_dataset --name q
load --table item_q
[
{"_key":"Groonga","boost":10,"kana":["ぐるんが"]},
{"_key":"Ray data"}
]
load --table event_q
[
{"sequence":"1","time":1.0,"item":"gro"},
{"sequence":"1","time":1.1,"item":"groonga","type":"submit"},
{"sequence":"2","time":2.0,"item":"ray data","type":"submit"}
]
suggest --table item_q --types complete|correct|suggest --query gro --frequency_threshold 1
@copy_path
@register_tsv
select Docs --query ray --match_columns title --query_expander QueryExpanderTSV --output_columns _key --sortby _id
dump
"""


def run_stream(server: CommandServer, tmp: str) -> list:
    syn = os.path.join(tmp, "synonyms.tsv")
    with open(syn, "w", encoding="utf-8") as fh:
        fh.write(SYNONYMS)
    out = []
    for name, params, _ in parse_script(SCRIPT):
        if name == "@copy_path":
            name, params = "copy_path", {"dst": "synonyms.tsv", "src_abs": syn}
        elif name == "@register_tsv":
            name, params = "register", {"path": "query_expanders/tsv"}
        rc, body, err, _ = server.dispatch(name, params)
        text = json.dumps([name, rc, body, err], ensure_ascii=False)
        out.append(json.loads(text.replace(tmp, "<tmp>")))
    return out


def test_catalog_stream_matches_golden(ray_session, tmp_path):
    tmp = str(tmp_path)
    got = run_stream(CommandServer(data_dir=os.path.join(tmp, "data")), tmp)
    if os.environ.get("GOLDEN_REGEN") == "1":
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1, ensure_ascii=False)
            fh.write("\n")
        pytest.skip("golden regenerated")
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"command {i} ({w[0]}) diverged"


def _run(server: CommandServer, script: str) -> list:
    return [server.dispatch(n, p)[:3] for n, p, _ in parse_script(script)]


def test_renamed_table_keeps_its_vector_columns(ray_session, tmp_path):
    server = CommandServer(data_dir=str(tmp_path))
    out = _run(server, """
table_create V TABLE_HASH_KEY ShortText
column_create V tags COLUMN_VECTOR ShortText
load --table V
[{"_key":"a","tags":["q"]}]
table_rename V W
load --table W
[{"_key":"b","tags":"r"}]
select W --output_columns _key,tags --sortby _key
""")
    assert out[-2] == (0, 1, None)
    assert out[-1][1][0][2:] == [["a", ["q"]], ["b", ["r"]]]


def test_recreated_table_forgets_removed_columns(ray_session, tmp_path):
    server = CommandServer(data_dir=str(tmp_path))
    out = _run(server, """
table_create T TABLE_HASH_KEY ShortText
column_create T old COLUMN_SCALAR ShortText
load --table T
[{"_key":"a","old":"x"}]
table_remove T
table_create T TABLE_HASH_KEY ShortText
column_create T new COLUMN_SCALAR ShortText
load --table T --columns _key,old
[["b","y"]]
""")
    assert out[-1] == (-22, None, "[load] nonexistent column: <old>")


def test_index_column_truncate_clears_the_select_cache(ray_session, tmp_path):
    server = CommandServer(data_dir=str(tmp_path))
    out = _run(server, """
table_create Self TABLE_PAT_KEY ShortText
column_create Self own COLUMN_SCALAR ShortText
column_create Self own_index COLUMN_INDEX Self own
load --table Self
[{"_key":"k1","own":"x"},{"_key":"k2","own":"x"},{"_key":"k3","own":"y"}]
select Self --output_columns '*' --sortby _key
truncate Self.own_index
select Self --output_columns '*' --sortby _key
select Self --output_columns '*' --sortby _key --cache no
""")
    counts = [[r[-1] for r in o[1][0][2:]] for o in out[-4:] if o[1] is not True]
    assert counts == [[2, 2, 1], [0, 0, 0], [0, 0, 0]]
    assert out[-2] == out[-1]


def test_new_table_under_a_renamed_tables_old_name(ray_session, tmp_path):
    server = CommandServer(data_dir=str(tmp_path))
    out = _run(server, """
table_create A TABLE_HASH_KEY ShortText
column_create A note COLUMN_SCALAR ShortText
load --table A
[{"_key":"b1","note":"kept"}]
table_rename A B
table_create A TABLE_HASH_KEY ShortText
column_create A note COLUMN_SCALAR ShortText
load --table A
[{"_key":"a1","note":"new"},{"_key":"a2","note":"new"}]
select B --output_columns _key,note
select A --output_columns _key,note --sortby _key
""")
    assert out[-3] == (0, 2, None)
    assert out[-2][1][0][0] == [1] and out[-2][1][0][2:] == [["b1", "kept"]]
    assert out[-1][1][0][2:] == [["a1", "new"], ["a2", "new"]]


def test_catalog_lives_in_table_defs():
    """Per-table facts live in each table's TableDef, and every
    server-wide registry is declared in ``__init__``: no method adds a
    ``self`` attribute of its own, and none probes for one with
    ``hasattr``/``getattr``."""
    import ast

    import groonga_ray.server as server_mod

    with open(server_mod.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    cls = next(
        n for n in tree.body
        if isinstance(n, ast.ClassDef) and n.name == "CommandServer"
    )

    def self_attrs(fn) -> dict:
        out = {}
        for node in ast.walk(fn):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for t in targets:
                for e in ast.walk(t):
                    if (
                        isinstance(e, ast.Attribute)
                        and isinstance(e.value, ast.Name)
                        and e.value.id == "self"
                        and isinstance(e.ctx, ast.Store)
                    ):
                        out.setdefault(e.attr, e.lineno)
        return out

    methods = [
        n for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    declared = set(self_attrs(next(m for m in methods if m.name == "__init__")))
    undeclared = sorted(
        f"{m.name}:{line} self.{attr}"
        for m in methods if m.name != "__init__"
        for attr, line in self_attrs(m).items()
        if attr not in declared
    )
    assert not undeclared, f"attributes set outside __init__: {undeclared}"
    probes = sorted(
        f"line {node.lineno}: {node.func.id}(self, ...)"
        for node in ast.walk(cls)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "self"
        and (
            node.func.id == "hasattr"
            or (
                node.func.id == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            )
        )
    )
    assert not probes, f"attribute probes on self: {probes}"
