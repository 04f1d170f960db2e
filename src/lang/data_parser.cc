#include "lang/data_parser.h"

#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "lang/expr_parser.h"
#include "lang/lexer.h"
#include "util/string_util.h"

namespace ccdb::lang {

namespace {

/// Parses "name: domain kind; name: domain kind; ...".
Result<Schema> ParseSchemaDeclaration(const std::string& text) {
  std::vector<Attribute> attrs;
  for (const std::string& piece : SplitAndTrim(text, ';')) {
    if (piece.empty()) continue;
    size_t colon = piece.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("attribute without ':' in schema: '" + piece +
                                "'");
    }
    Attribute attr;
    attr.name = Trim(piece.substr(0, colon));
    std::vector<std::string> words;
    for (const std::string& w :
         SplitAndTrim(Trim(piece.substr(colon + 1)), ' ')) {
      // Allow both "rational constraint" and "rational, constraint".
      std::string cleaned = Trim(w);
      if (!cleaned.empty() && cleaned.back() == ',') cleaned.pop_back();
      if (!cleaned.empty()) words.push_back(ToLower(cleaned));
    }
    // Also split on commas inside single words ("rational,constraint").
    std::vector<std::string> flags;
    for (const std::string& w : words) {
      for (const std::string& part : SplitAndTrim(w, ',')) {
        if (!part.empty()) flags.push_back(part);
      }
    }
    bool domain_set = false, kind_set = false;
    for (const std::string& flag : flags) {
      if (flag == "string") {
        attr.domain = AttributeDomain::kString;
        domain_set = true;
      } else if (flag == "rational") {
        attr.domain = AttributeDomain::kRational;
        domain_set = true;
      } else if (flag == "relational") {
        attr.kind = AttributeKind::kRelational;
        kind_set = true;
      } else if (flag == "constraint") {
        attr.kind = AttributeKind::kConstraint;
        kind_set = true;
      } else {
        return Status::ParseError("unknown schema flag '" + flag + "'");
      }
    }
    if (!domain_set || !kind_set) {
      return Status::ParseError("attribute '" + attr.name +
                                "' needs a domain (string|rational) and a "
                                "kind (relational|constraint)");
    }
    attrs.push_back(std::move(attr));
  }
  return Schema::Make(std::move(attrs));
}

}  // namespace

Status LoadDatabaseText(const std::string& text, Database* db) {
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;

  std::optional<std::string> relation_name;
  std::optional<Relation> relation;

  auto flush = [&]() -> Status {
    if (relation_name && relation) {
      CCDB_RETURN_IF_ERROR(db->Create(*relation_name, std::move(*relation)));
    } else if (relation_name) {
      return Status::ParseError("relation '" + *relation_name +
                                "' has no schema");
    }
    relation_name.reset();
    relation.reset();
    return Status::OK();
  };

  while (std::getline(in, line)) {
    ++line_no;
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;

    if (StartsWith(ToLower(trimmed), "relation")) {
      CCDB_RETURN_IF_ERROR(AtLine(line_no, flush()));
      std::string name = Trim(trimmed.substr(8));
      if (name.empty()) {
        return AtLine(line_no, Status::ParseError("relation without a name"));
      }
      relation_name = name;
      continue;
    }
    if (StartsWith(ToLower(trimmed), "schema")) {
      if (!relation_name) {
        return AtLine(line_no,
                      Status::ParseError("schema before any relation"));
      }
      if (relation) {
        return AtLine(line_no, Status::ParseError(
                                   "duplicate schema for relation '" +
                                   *relation_name + "'"));
      }
      auto schema = ParseSchemaDeclaration(Trim(trimmed.substr(6)));
      if (!schema.ok()) return AtLine(line_no, schema.status());
      relation = Relation(std::move(schema).value());
      continue;
    }
    if (StartsWith(ToLower(trimmed), "tuple")) {
      if (!relation) {
        return AtLine(line_no,
                      Status::ParseError("tuple before relation schema"));
      }
      auto comparisons = ParseComparisonList(Trim(trimmed.substr(5)));
      if (!comparisons.ok()) return AtLine(line_no, comparisons.status());
      auto tuple = BindTuple(relation->schema(), *comparisons);
      if (!tuple.ok()) return AtLine(line_no, tuple.status());
      Status inserted = relation->Insert(std::move(tuple).value());
      if (!inserted.ok()) return AtLine(line_no, inserted);
      continue;
    }
    return AtLine(line_no, Status::ParseError("unrecognized directive: '" +
                                              trimmed + "'"));
  }
  return flush();
}

Status LoadDatabaseFile(const std::string& path, Database* db) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadDatabaseText(buffer.str(), db);
}

std::string FormatTupleLine(const Tuple& tuple) {
  std::string out = "tuple ";
  bool first = true;
  for (const auto& [name, value] : tuple.values()) {
    if (!first) out += ", ";
    out += name + " = " + value.ToString();  // strings render quoted
    first = false;
  }
  for (const Constraint& c : tuple.constraints().constraints()) {
    if (!first) out += ", ";
    out += c.ToPrettyString();
    first = false;
  }
  return out;
}

std::string FormatDatabaseText(const Database& db) {
  std::string out;
  for (const std::string& name : db.Names()) {
    const Relation* rel = db.Get(name).value();
    out += "relation " + name + "\n";
    out += FormatSchemaDeclaration(rel->schema()) + "\n";
    for (const Tuple& t : rel->tuples()) {
      out += FormatTupleLine(t) + "\n";
    }
    out += "\n";
  }
  return out;
}

Status SaveDatabaseFile(const std::string& path, const Database& db) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  out << FormatDatabaseText(db);
  if (!out.good()) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return Status::OK();
}

std::string FormatSchemaDeclaration(const Schema& schema) {
  std::string out = "schema ";
  bool first = true;
  for (const Attribute& attr : schema.attributes()) {
    if (!first) out += "; ";
    out += attr.name;
    out += ": ";
    out += AttributeDomainName(attr.domain);
    out += " ";
    out += AttributeKindName(attr.kind);
    first = false;
  }
  return out;
}

}  // namespace ccdb::lang
