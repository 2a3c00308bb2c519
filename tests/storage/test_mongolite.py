"""Embedded Mongo-like database tests."""

from __future__ import annotations

import time

import pytest

from repro.core.errors import DocumentTooLargeError, StoreError
from repro.storage.mongostore import MAX_DOCUMENT_BYTES, Collection, MongoLite


class TestCollection:
    def test_insert_and_find(self):
        coll = Collection("c")
        coll.insert_one({"a": 1})
        coll.insert_one({"a": 2})
        assert coll.count_documents() == 2
        assert coll.count_documents({"a": 1}) == 1

    def test_ids_assigned(self):
        coll = Collection("c")
        first = coll.insert_one({"x": 1})
        second = coll.insert_one({"x": 2})
        assert first != second

    def test_explicit_id_respected(self):
        coll = Collection("c")
        assert coll.insert_one({"_id": 42, "x": 1}) == 42
        with pytest.raises(StoreError):
            coll.insert_one({"_id": 42})

    def test_insert_many(self):
        coll = Collection("c")
        ids = coll.insert_many([{"a": 1}, {"a": 2}])
        assert len(ids) == 2

    def test_find_one(self):
        coll = Collection("c")
        coll.insert_one({"a": 1})
        assert coll.find_one({"a": 1})["a"] == 1
        assert coll.find_one({"a": 9}) is None

    def test_delete_many(self):
        coll = Collection("c")
        coll.insert_many([{"a": 1}, {"a": 1}, {"a": 2}])
        assert coll.delete_many({"a": 1}) == 2
        assert coll.count_documents() == 1

    def test_replace_one(self):
        coll = Collection("c")
        doc_id = coll.insert_one({"a": 1})
        assert coll.replace_one({"a": 1}, {"a": 5})
        assert coll.find_one({"_id": doc_id})["a"] == 5
        assert not coll.replace_one({"a": 99}, {"a": 1})

    def test_distinct(self):
        coll = Collection("c")
        coll.insert_many([{"a": 1}, {"a": 2}, {"a": 1}])
        assert coll.distinct("a") == [1, 2]

    def test_document_limit_default_is_16mb(self):
        assert MAX_DOCUMENT_BYTES == 16 * 1024 * 1024

    def test_document_limit_enforced(self):
        coll = Collection("c", limit_bytes=100)
        with pytest.raises(DocumentTooLargeError):
            coll.insert_one({"blob": "x" * 200})

    def test_replace_respects_limit(self):
        coll = Collection("c", limit_bytes=100)
        coll.insert_one({"a": 1})
        with pytest.raises(DocumentTooLargeError):
            coll.replace_one({"a": 1}, {"blob": "x" * 200})

    def test_find_returns_copies(self):
        coll = Collection("c")
        coll.insert_one({"a": 1})
        coll.find()[0]["a"] = 99
        assert coll.find_one()["a"] == 1


class TestMongoLite:
    def test_collections_created_on_demand(self):
        db = MongoLite()
        db["x"].insert_one({"a": 1})
        assert db.collection_names() == ["x"]

    def test_drop_collection(self):
        db = MongoLite()
        db["x"].insert_one({"a": 1})
        db.drop_collection("x")
        assert db.collection_names() == []

    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "db.json"
        db = MongoLite(path)
        db["c"].insert_one({"a": 1})
        db.dump()
        reloaded = MongoLite(path)
        assert reloaded["c"].count_documents() == 1
        assert reloaded["c"].find_one()["a"] == 1

    def test_load_preserves_next_id(self, tmp_path):
        path = tmp_path / "db.json"
        db = MongoLite(path)
        first = db["c"].insert_one({"a": 1})
        db.dump()
        reloaded = MongoLite(path)
        second = reloaded["c"].insert_one({"a": 2})
        assert second != first

    def test_in_memory_dump_is_noop(self):
        MongoLite().dump()  # must not raise


class TestTTLIndexes:
    """Server-side TTL expiry (``create_ttl_index`` / ``expire_markers``)."""

    def test_expired_documents_are_swept(self):
        coll = Collection("c")
        coll.create_ttl_index("created", 10.0)
        now = time.time()
        coll.insert_one({"created": now - 60.0, "kind": "old"})
        coll.insert_one({"created": now, "kind": "new"})
        assert coll.expire_now() == 1
        assert [doc["kind"] for doc in coll.find()] == ["new"]

    def test_match_scopes_expiry_to_markers(self):
        """A scoped TTL index must never expire documents outside its
        match — real profiles sharing the collection with markers."""
        coll = Collection("c")
        coll.create_ttl_index("created", 10.0, match={"command": "marker"})
        stale = time.time() - 60.0
        coll.insert_one({"created": stale, "command": "marker"})
        coll.insert_one({"created": stale, "command": "real work"})
        assert coll.expire_now() == 1
        [survivor] = coll.find()
        assert survivor["command"] == "real work"

    def test_documents_without_field_never_expire(self):
        coll = Collection("c")
        coll.create_ttl_index("created", 0.0)
        coll.insert_one({"name": "timeless"})
        coll.insert_one({"created": "not a number"})
        assert coll.expire_now() == 0
        assert coll.count_documents() == 2

    def test_lazy_sweep_on_read_paths(self, monkeypatch):
        coll = Collection("c")
        coll.create_ttl_index("created", 10.0)
        coll.insert_one({"created": time.time() - 60.0})
        coll._ttl_next_sweep = 0.0  # force the throttled sweep to be due
        assert coll.find() == []

    def test_sweep_is_throttled(self):
        coll = Collection("c")
        coll.create_ttl_index("created", 10.0)
        coll.expire_now()  # arms the throttle window
        coll.insert_one({"created": time.time() - 60.0})
        # Within the throttle window reads do not sweep ...
        assert coll.count_documents() == 1
        # ... but a forced sweep does.
        assert coll.expire_now() == 1

    def test_repeat_create_updates_horizon(self):
        coll = Collection("c")
        coll.create_ttl_index("created", 1000.0)
        coll.create_ttl_index("created", 10.0)
        assert len(coll._ttls) == 1
        coll.insert_one({"created": time.time() - 60.0})
        assert coll.expire_now() == 1

    def test_ttl_config_survives_dump_and_load(self, tmp_path):
        path = tmp_path / "db.json"
        db = MongoLite(path)
        db["c"].create_ttl_index("created", 10.0, match={"command": "m"})
        db["c"].insert_one({"created": time.time() - 60.0, "command": "m"})
        db.dump()
        reloaded = MongoLite(path)
        assert reloaded["c"].expire_now() == 1

    def test_expiry_maintains_equality_indexes(self):
        coll = Collection("c")
        coll.create_index("command")
        coll.create_ttl_index("created", 10.0)
        coll.insert_one({"created": time.time() - 60.0, "command": "m"})
        assert coll._indexes["command"].get("m")  # indexed before expiry
        coll.expire_now()
        assert coll._indexes["command"].get("m") is None  # index entry gone
        assert coll.ids_with("command", "m") == []


class TestMongoStoreExpireMarkers:
    def test_markers_expire_profiles_survive(self):
        from repro.core.samples import Profile, Sample
        from repro.storage.mongostore import MongoStore

        store = MongoStore()
        stale = time.time() - 3600.0
        marker = Profile(
            command="synapse:campaign-lease", tags=("campaign=c", "lease=x"),
            samples=[], created=stale,
        )
        real = Profile(
            command="sleep 1", tags=("k=1",),
            samples=[Sample(index=0, t=0.0, dt=1.0, values={})], created=stale,
        )
        store.put_many([marker, real])
        assert store.expire_markers("synapse:campaign-lease", 900.0) == 1
        assert store.count() == 1
        assert store.find("sleep 1")
        assert store.find("synapse:campaign-lease") == []
